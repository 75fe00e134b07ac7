//===-- ecas/support/Format.h - printf-style string helpers ----*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string-formatting utilities used by the library, the benchmark
/// harnesses, and the examples. Library code never includes <iostream>;
/// everything funnels through std::snprintf-backed helpers.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_SUPPORT_FORMAT_H
#define ECAS_SUPPORT_FORMAT_H

#include <cstdarg>
#include <string>
#include <vector>

namespace ecas {

/// Returns a std::string produced by printf-style formatting.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// va_list variant of formatString.
std::string formatStringV(const char *Fmt, va_list Args);

/// Formats \p Seconds with an auto-selected unit (ns/us/ms/s).
std::string formatDuration(double Seconds);

/// Formats \p Joules with an auto-selected unit (uJ/mJ/J/kJ).
std::string formatEnergy(double Joules);

/// Splits \p Text on \p Sep, trimming surrounding whitespace from each
/// piece. Empty pieces are preserved (so "a,,b" yields three fields).
std::vector<std::string> splitString(const std::string &Text, char Sep);

/// Removes leading and trailing whitespace.
std::string trimString(const std::string &Text);

/// Parses a double, returning true on success. Rejects trailing garbage.
bool parseDouble(const std::string &Text, double &Out);

/// Parses a signed 64-bit integer, returning true on success.
bool parseInt64(const std::string &Text, long long &Out);

/// Escapes \p Text for a JSON string literal: quotes, backslashes, and
/// control characters.
std::string escapeJson(const std::string &Text);

/// Renders a right-padded, fixed-width table cell for plain-text reports.
std::string padRight(const std::string &Text, unsigned Width);

} // namespace ecas

#endif // ECAS_SUPPORT_FORMAT_H
