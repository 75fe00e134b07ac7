//===-- ecas/support/Flags.cpp - Tiny command-line flag parser ------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// ecas-lint: allow-file(no-raw-output) -- rejectUnknown()'s usage error
// goes to stderr by design: the parser runs before any reporting
// machinery.

#include "ecas/support/Flags.h"

#include "ecas/support/Format.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <type_traits>

using namespace ecas;

Flags::Flags(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(Arg);
      continue;
    }
    std::string Body = Arg.substr(2);
    size_t Eq = Body.find('=');
    if (Eq != std::string::npos) {
      Values[Body.substr(0, Eq)] = Body.substr(Eq + 1);
      continue;
    }
    // Bare "--name" is a boolean. The "--name value" form is not
    // supported: it is ambiguous against positional arguments.
    Values[Body] = "true";
  }
}

std::string Flags::getString(const std::string &Name,
                             const std::string &Default) const {
  auto It = Values.find(Name);
  if (It == Values.end())
    return Default;
  return It->second;
}

template <typename T>
ErrorOr<T> Flags::getNumber(const std::string &Name, T Default, T Min,
                            T Max) const {
  auto It = Values.find(Name);
  if (It == Values.end())
    return Default;
  T Value;
  bool Parsed;
  if constexpr (std::is_same_v<T, double>)
    Parsed = parseDouble(It->second, Value) && std::isfinite(Value);
  else
    Parsed = parseInt64(It->second, Value);
  if (!Parsed)
    return Status::error(ErrCode::ParseError,
                         formatString("--%s wants a finite %s, got '%s'",
                                      Name.c_str(),
                                      std::is_same_v<T, double> ? "number"
                                                                : "integer",
                                      It->second.c_str()));
  if (Value < Min || Value > Max)
    return Status::error(
        ErrCode::OutOfRange,
        formatString("--%s wants a value in [%g, %g], got '%s'",
                     Name.c_str(), static_cast<double>(Min),
                     static_cast<double>(Max), It->second.c_str()));
  return Value;
}

template ErrorOr<double> Flags::getNumber(const std::string &, double,
                                          double, double) const;
template ErrorOr<long long> Flags::getNumber(const std::string &, long long,
                                             long long, long long) const;

Status Flags::checkAccepted(const std::vector<std::string> &Accepted) const {
  for (const auto &[Name, Value] : Values)
    if (std::find(Accepted.begin(), Accepted.end(), Name) == Accepted.end())
      return Status::error(ErrCode::InvalidArgument,
                           "unknown flag --" + Name);
  return Status::success();
}

bool Flags::getBool(const std::string &Name, bool Default) const {
  auto It = Values.find(Name);
  if (It == Values.end())
    return Default;
  const std::string &Text = It->second;
  return Text == "true" || Text == "1" || Text == "yes" || Text == "on";
}

bool Flags::rejectUnknown(const std::vector<std::string> &Accepted,
                          const char *Usage) const {
  Status Unknown = checkAccepted(Accepted);
  if (Unknown.ok())
    return false;
  std::fprintf(stderr, "error: %s\n%s\n", Unknown.message().c_str(), Usage);
  return true;
}
