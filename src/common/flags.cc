#include "common/flags.h"

#include <cstdlib>

namespace spnet {

Status FlagParser::Parse(int argc, const char* const* argv) {
  return Parse(argc, argv, {});
}

Status FlagParser::Parse(int argc, const char* const* argv,
                         const std::set<std::string>& boolean_flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    if (arg.empty()) {
      return Status::InvalidArgument("empty flag name");
    }
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (boolean_flags.count(arg) > 0) {
      values_[arg] = "true";
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
  return Status::Ok();
}

const std::string* FlagParser::Find(const std::string& name) const {
  read_.insert(name);
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool FlagParser::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  const std::string* v = Find(name);
  return v == nullptr ? default_value : *v;
}

int64_t FlagParser::GetInt(const std::string& name,
                           int64_t default_value) const {
  const std::string* v = Find(name);
  return v == nullptr ? default_value : std::strtoll(v->c_str(), nullptr, 10);
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  const std::string* v = Find(name);
  return v == nullptr ? default_value : std::strtod(v->c_str(), nullptr);
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  const std::string* v = Find(name);
  if (v == nullptr) return default_value;
  return *v == "true" || *v == "1" || *v == "yes" || *v == "on";
}

Status FlagParser::CheckAllRead() const {
  for (const auto& entry : values_) {
    if (read_.count(entry.first) == 0) {
      return Status::InvalidArgument("unused flag --" + entry.first);
    }
  }
  return Status::Ok();
}

}  // namespace spnet
