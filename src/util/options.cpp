#include "util/options.hpp"

#include <charconv>
#include <iostream>
#include <sstream>

namespace jem::util {

namespace {

template <typename T>
T parse_number(std::string_view name, std::string_view text) {
  T value{};
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    throw OptionError("invalid numeric value '" + std::string(text) +
                      "' for --" + std::string(name));
  }
  return value;
}

double parse_double(std::string_view name, std::string_view text) {
  // std::from_chars<double> is available in libstdc++ 12; keep strtod as a
  // portable, locale-independent-enough fallback path with full validation.
  double value{};
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    throw OptionError("invalid numeric value '" + std::string(text) +
                      "' for --" + std::string(name));
  }
  return value;
}

}  // namespace

void Options::add_spec(Spec spec) {
  if (find(spec.name) != nullptr) {
    throw OptionError("duplicate option registration: --" + spec.name);
  }
  specs_.push_back(std::move(spec));
}

void Options::add_flag(std::string name, bool& target, std::string help) {
  add_spec({std::move(name), Kind::kFlag, std::move(help),
            [&target](std::string_view v) { target = (v == "1"); }});
}

void Options::add_int(std::string name, std::int64_t& target,
                      std::string help) {
  std::string captured_name = name;
  add_spec({std::move(name), Kind::kInt, std::move(help),
            [&target, captured_name](std::string_view v) {
              target = parse_number<std::int64_t>(captured_name, v);
            }});
}

void Options::add_uint(std::string name, std::uint64_t& target,
                       std::string help) {
  std::string captured_name = name;
  add_spec({std::move(name), Kind::kUint, std::move(help),
            [&target, captured_name](std::string_view v) {
              target = parse_number<std::uint64_t>(captured_name, v);
            }});
}

void Options::add_uint(std::string name,
                       std::optional<std::uint64_t>& target,
                       std::string help) {
  std::string captured_name = name;
  add_spec({std::move(name), Kind::kUint, std::move(help),
            [&target, captured_name](std::string_view v) {
              target = parse_number<std::uint64_t>(captured_name, v);
            }});
}

void Options::add_double(std::string name, double& target, std::string help) {
  std::string captured_name = name;
  add_spec({std::move(name), Kind::kDouble, std::move(help),
            [&target, captured_name](std::string_view v) {
              target = parse_double(captured_name, v);
            }});
}

void Options::add_string(std::string name, std::string& target,
                         std::string help) {
  add_spec({std::move(name), Kind::kString, std::move(help),
            [&target](std::string_view v) { target = std::string(v); }});
}

const Options::Spec* Options::find(std::string_view name) const noexcept {
  for (const Spec& spec : specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> Options::parse(
    std::span<const char* const> args) const {
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string_view arg = args[i];
    if (!arg.starts_with("--")) {
      positional.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);

    // --name=value form.
    std::string_view name = arg;
    std::optional<std::string_view> inline_value;
    if (const std::size_t eq = arg.find('='); eq != std::string_view::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }

    const Spec* spec = find(name);
    bool negated = false;
    if (spec == nullptr && name.starts_with("no-")) {
      spec = find(name.substr(3));
      if (spec != nullptr && spec->kind == Kind::kFlag) {
        negated = true;
      } else {
        spec = nullptr;
      }
    }
    if (spec == nullptr) {
      throw OptionError("unknown option --" + std::string(name));
    }

    if (spec->kind == Kind::kFlag) {
      if (inline_value.has_value()) {
        throw OptionError("flag --" + spec->name + " does not take a value");
      }
      spec->apply(negated ? "0" : "1");
      continue;
    }

    std::string_view value;
    if (inline_value.has_value()) {
      value = *inline_value;
    } else {
      if (i + 1 >= args.size()) {
        throw OptionError("option --" + spec->name + " requires a value");
      }
      value = args[++i];
    }
    spec->apply(value);
  }
  return positional;
}

std::optional<int> Options::parse_command(std::span<const char* const> args,
                                          std::string_view program) const {
  for (const std::string_view arg : args) {
    if (arg == "--help" || arg == "-h") {
      std::cout << usage(program);
      return 0;
    }
  }
  try {
    (void)parse(args);
  } catch (const OptionError& error) {
    std::cerr << error.what() << '\n' << usage(program);
    return 2;
  }
  return std::nullopt;
}

std::string Options::usage(std::string_view program) const {
  std::ostringstream out;
  out << "usage: " << program << " [options]\n";
  for (const Spec& spec : specs_) {
    out << "  --" << spec.name;
    switch (spec.kind) {
      case Kind::kFlag: break;
      case Kind::kInt: out << " <int>"; break;
      case Kind::kUint: out << " <uint>"; break;
      case Kind::kDouble: out << " <float>"; break;
      case Kind::kString: out << " <string>"; break;
    }
    out << "\n      " << spec.help << '\n';
  }
  return out.str();
}

}  // namespace jem::util
