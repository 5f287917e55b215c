#include "util/args.hpp"

#include <sstream>

#include "util/strings.hpp"

namespace stt {

void ArgParser::add_option(const std::string& name, const std::string& doc,
                           std::optional<std::string> default_value) {
  if (!starts_with(name, "--")) throw ArgError("option must start with --");
  specs_[name] = Spec{doc, false, std::move(default_value)};
}

void ArgParser::add_flag(const std::string& name, const std::string& doc) {
  if (!starts_with(name, "--")) throw ArgError("flag must start with --");
  specs_[name] = Spec{doc, true, std::nullopt};
}

void ArgParser::parse(const std::vector<std::string>& args) {
  for (const std::string& arg : args) {
    if (arg == "--help") throw HelpRequested(help());
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg;
    std::optional<std::string> inline_value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }
    const auto it = specs_.find(name);
    if (it == specs_.end()) throw ArgError("unknown option '" + name + "'");
    if (it->second.is_flag) {
      if (inline_value) throw ArgError("flag '" + name + "' takes no value");
      values_[name] = "1";
      continue;
    }
    if (inline_value) {
      values_[name] = *inline_value;
    } else {
      if (i + 1 >= args.size()) {
        throw ArgError("option '" + name + "' needs a value");
      }
      values_[name] = args[++i];
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  if (values_.count(name)) return true;
  const auto it = specs_.find(name);
  return it != specs_.end() && it->second.default_value.has_value();
}

std::string ArgParser::get(const std::string& name) const {
  if (const auto it = values_.find(name); it != values_.end()) {
    return it->second;
  }
  const auto spec = specs_.find(name);
  if (spec != specs_.end() && spec->second.default_value) {
    return *spec->second.default_value;
  }
  throw ArgError("missing required option '" + name + "'");
}

std::string ArgParser::get_or(const std::string& name,
                              const std::string& fallback) const {
  return has(name) ? get(name) : fallback;
}

std::int64_t ArgParser::get_int(const std::string& name, std::int64_t min,
                                std::int64_t max) const {
  const std::string v = get(name);
  if (const auto out = parse_int(v, min, max)) return *out;
  using L = std::numeric_limits<std::int64_t>;
  const std::string range =
      max != L::max()   ? strformat(" in [%ld, %ld]", min, max)
      : min != L::min() ? strformat(" >= %ld", min)
                        : "";
  throw ArgError("option '" + name + "' expects an integer" + range +
                 ", got '" + v + "'");
}

double ArgParser::get_double(const std::string& name, double min) const {
  const std::string v = get(name);
  if (const auto out = parse_real(v, min)) return *out;
  const std::string range =
      min > std::numeric_limits<double>::lowest() ? strformat(" >= %g", min)
                                                  : "";
  throw ArgError("option '" + name + "' expects a finite number" + range +
                 ", got '" + v + "'");
}

bool ArgParser::flag(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string ArgParser::help() const {
  std::ostringstream os;
  for (const auto& [name, spec] : specs_) {
    os << "  " << name;
    if (!spec.is_flag) {
      os << " <value>";
      if (spec.default_value) os << " (default: " << *spec.default_value << ")";
    }
    os << "\n      " << spec.doc << '\n';
  }
  return os.str();
}

}  // namespace stt
