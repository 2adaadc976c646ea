#ifndef SPNET_COMMON_FLAGS_H_
#define SPNET_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace spnet {

/// Minimal command-line flag parser for the tools, benches and examples.
///
/// Accepts `--name=value`, `--name value` and bare `--name` (boolean true).
/// Anything not starting with `--` is collected as a positional argument.
/// Every name looked up through Has/Get* is recorded, so a tool can reject
/// a misspelt or removed flag with CheckAllRead once it has read its own.
class FlagParser {
 public:
  /// Parses argv; returns InvalidArgument on malformed input.
  Status Parse(int argc, const char* const* argv);

  /// Like Parse, but names in `boolean_flags` never consume the following
  /// token as a value (`--werror src` keeps `src` positional). Tools whose
  /// boolean switches precede positional paths must use this overload;
  /// `--name=value` still works for every flag.
  Status Parse(int argc, const char* const* argv,
               const std::set<std::string>& boolean_flags);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// InvalidArgument naming the first given `--flag` (in name order) that
  /// no Has/Get* call has looked up.
  Status CheckAllRead() const;

 private:
  /// Records a lookup of `name` and returns its value, or null if absent.
  const std::string* Find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

}  // namespace spnet

#endif  // SPNET_COMMON_FLAGS_H_
