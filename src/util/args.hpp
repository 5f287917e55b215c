// Minimal command-line argument parser for the sttlock CLI tool.
//
// Supports `--name value`, `--name=value`, boolean `--flag`, and positional
// arguments. Unknown options raise; every option must be declared first so
// typos fail loudly. `--help` anywhere in the arguments raises HelpRequested
// carrying help(), so every command answers it the same way.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace stt {

struct ArgError : std::runtime_error {
  explicit ArgError(const std::string& msg) : std::runtime_error(msg) {}
};

/// Thrown by ArgParser::parse when the arguments contain `--help`. Callers
/// that only handle ArgError still print the options and stop.
struct HelpRequested : ArgError {
  explicit HelpRequested(std::string help_text)
      : ArgError("--help requested"), text(std::move(help_text)) {}
  std::string text;  ///< ArgParser::help() of the parser that saw --help
};

class ArgParser {
 public:
  /// Declare a value option (e.g. "--seed"). `doc` feeds help().
  void add_option(const std::string& name, const std::string& doc,
                  std::optional<std::string> default_value = std::nullopt);
  /// Declare a boolean flag (e.g. "--pack").
  void add_flag(const std::string& name, const std::string& doc);

  /// Parse argv-style input (not including the program/subcommand name).
  /// Throws HelpRequested if any argument is `--help`.
  void parse(const std::vector<std::string>& args);

  bool has(const std::string& name) const;
  std::string get(const std::string& name) const;
  std::string get_or(const std::string& name, const std::string& fallback) const;
  /// Numeric values go through the strict parsers of util/strings.hpp: a
  /// value that is not a whole number, is not finite, or lies outside its
  /// bounds throws ArgError naming the option and the value.
  std::int64_t get_int(
      const std::string& name,
      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const;
  double get_double(const std::string& name,
                    double min = std::numeric_limits<double>::lowest()) const;
  bool flag(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// One line per declared option/flag.
  std::string help() const;

 private:
  struct Spec {
    std::string doc;
    bool is_flag = false;
    std::optional<std::string> default_value;
  };
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace stt
