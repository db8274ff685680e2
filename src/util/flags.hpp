// Tiny command-line flag parser for benches and examples.
//
// Supports --name=value, --name value, and bare --name for booleans.
// Unknown flags are an error (typos in sweep scripts should fail fast).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gs::util {

class Flags {
 public:
  /// Registers a flag with its default and help text.  Must be called before
  /// parse().  Returns *this for chaining.
  Flags& define(std::string name, std::string default_value, std::string help);
  Flags& define_int(std::string name, std::int64_t default_value, std::string help);
  Flags& define_double(std::string name, double default_value, std::string help);
  Flags& define_bool(std::string name, bool default_value, std::string help);

  /// Parses argv.  On --help prints usage and returns false (caller should
  /// exit 0).  Throws std::runtime_error on unknown flags or missing values;
  /// a malformed typed value throws later, from its getter.
  [[nodiscard]] bool parse(int argc, char** argv);

  /// parse() for a program's main, plus an up-front parse of every typed
  /// flag's value so no later getter can throw.  Returns std::nullopt to
  /// carry on, 0 after --help, or 2 after a bad flag, whose message and
  /// usage() it prints to stderr.
  [[nodiscard]] std::optional<int> parse_cli(int argc, char** argv);

  /// The bad-flag exit for value checks a program makes after parse_cli
  /// (enum names, list entries): prints "<program>: <message>" and usage()
  /// to stderr and returns 2.
  [[nodiscard]] int reject(std::string_view program, std::string_view message) const;

  [[nodiscard]] std::string get(std::string_view name) const;
  [[nodiscard]] std::int64_t get_int(std::string_view name) const;
  [[nodiscard]] double get_double(std::string_view name) const;
  [[nodiscard]] bool get_bool(std::string_view name) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept { return positional_; }

  [[nodiscard]] std::string usage(std::string_view program) const;

 private:
  enum class Kind { kString, kInt, kDouble, kBool };
  struct Entry {
    std::string value;
    std::string default_value;
    std::string help;
    Kind kind = Kind::kString;
  };

  Flags& define_kind(std::string name, std::string default_value, std::string help, Kind kind);

  const Entry& find(std::string_view name) const;

  std::map<std::string, Entry, std::less<>> entries_;
  std::vector<std::string> positional_;
};

}  // namespace gs::util
