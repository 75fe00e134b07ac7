//===-- ecas/support/Format.cpp - printf-style string helpers ------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/support/Format.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace ecas;

std::string ecas::formatStringV(const char *Fmt, va_list Args) {
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  if (Needed <= 0)
    return std::string();
  std::string Result(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, Args);
  return Result;
}

std::string ecas::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string Result = formatStringV(Fmt, Args);
  va_end(Args);
  return Result;
}

std::string ecas::formatDuration(double Seconds) {
  double Abs = std::fabs(Seconds);
  if (Abs < 1e-6)
    return formatString("%.1f ns", Seconds * 1e9);
  if (Abs < 1e-3)
    return formatString("%.2f us", Seconds * 1e6);
  if (Abs < 1.0)
    return formatString("%.2f ms", Seconds * 1e3);
  return formatString("%.3f s", Seconds);
}

std::string ecas::formatEnergy(double Joules) {
  double Abs = std::fabs(Joules);
  if (Abs < 1e-3)
    return formatString("%.2f uJ", Joules * 1e6);
  if (Abs < 1.0)
    return formatString("%.2f mJ", Joules * 1e3);
  if (Abs < 1e3)
    return formatString("%.3f J", Joules);
  return formatString("%.3f kJ", Joules * 1e-3);
}

std::string ecas::trimString(const std::string &Text) {
  size_t Begin = 0, End = Text.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(Text[Begin])))
    ++Begin;
  while (End > Begin && std::isspace(static_cast<unsigned char>(Text[End - 1])))
    --End;
  return Text.substr(Begin, End - Begin);
}

std::vector<std::string> ecas::splitString(const std::string &Text, char Sep) {
  std::vector<std::string> Pieces;
  size_t Start = 0;
  while (true) {
    size_t Pos = Text.find(Sep, Start);
    if (Pos == std::string::npos) {
      Pieces.push_back(trimString(Text.substr(Start)));
      return Pieces;
    }
    Pieces.push_back(trimString(Text.substr(Start, Pos - Start)));
    Start = Pos + 1;
  }
}

bool ecas::parseDouble(const std::string &Text, double &Out) {
  const std::string Trimmed = trimString(Text);
  if (Trimmed.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  double Value = std::strtod(Trimmed.c_str(), &End);
  if (errno != 0 || End != Trimmed.c_str() + Trimmed.size())
    return false;
  Out = Value;
  return true;
}

bool ecas::parseInt64(const std::string &Text, long long &Out) {
  const std::string Trimmed = trimString(Text);
  if (Trimmed.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  long long Value = std::strtoll(Trimmed.c_str(), &End, 10);
  if (errno != 0 || End != Trimmed.c_str() + Trimmed.size())
    return false;
  Out = Value;
  return true;
}

std::string ecas::padRight(const std::string &Text, unsigned Width) {
  if (Text.size() >= Width)
    return Text;
  return Text + std::string(Width - Text.size(), ' ');
}

std::string ecas::escapeJson(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size() + 2);
  for (char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out += C;
    }
  }
  return Out;
}
