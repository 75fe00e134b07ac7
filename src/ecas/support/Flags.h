//===-- ecas/support/Flags.h - Tiny command-line flag parser ---*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small --key=value flag parser shared by the command-line tool, the
/// benchmark harnesses and the examples. Every bench binary must also
/// run with zero arguments, so all flags carry defaults.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_SUPPORT_FLAGS_H
#define ECAS_SUPPORT_FLAGS_H

#include "ecas/support/Error.h"

#include <limits>
#include <map>
#include <string>
#include <vector>

namespace ecas {

/// Parses argv into a key->value map plus positional arguments.
///
/// Accepted forms: "--name=value" and bare "--name" (recorded with value
/// "true"). Anything not starting with "--" is a positional argument.
/// Unknown flags are kept; callers query what they need and reject the
/// rest with checkAccepted() or rejectUnknown().
class Flags {
public:
  Flags(int Argc, const char *const *Argv);

  std::string getString(const std::string &Name,
                        const std::string &Default) const;
  bool getBool(const std::string &Name, bool Default) const;

  /// --Name as a T (double or long long), or \p Default when the flag is
  /// absent. A value that does not parse as a T, is not finite, or lies
  /// outside [Min, Max] is an error naming the flag and the value.
  template <typename T>
  ErrorOr<T> getNumber(const std::string &Name, T Default,
                       T Min = std::numeric_limits<T>::lowest(),
                       T Max = std::numeric_limits<T>::max()) const;

  const std::vector<std::string> &positional() const { return Positional; }

  /// An error naming the first flag given that \p Accepted does not list.
  Status checkAccepted(const std::vector<std::string> &Accepted) const;

  /// For a program's main(): when a flag \p Accepted does not list was
  /// given, prints the error and \p Usage to stderr and returns true, and
  /// the program exits with status 2 (a usage error) before any work.
  bool rejectUnknown(const std::vector<std::string> &Accepted,
                     const char *Usage) const;

private:
  std::map<std::string, std::string> Values;
  std::vector<std::string> Positional;
};

} // namespace ecas

#endif // ECAS_SUPPORT_FLAGS_H
