#include "multiverse/config.hpp"

#include "support/faultplan.hpp"
#include "support/strings.hpp"

namespace mv::multiverse {

namespace {

// `option hybridize on,promote_after=8,threshold=4000` — leading on/off,
// then key=value knobs in any order.
Result<HybridizeOptions> parse_hybridize_spec(std::string_view text) {
  HybridizeOptions opts;
  bool saw_mode = false;
  for (const std::string& raw : split(text, ',')) {
    const std::string_view entry = trim(raw);
    if (entry.empty()) continue;
    if (entry == "on" || entry == "off") {
      opts.enabled = entry == "on";
      saw_mode = true;
      continue;
    }
    const auto parts = split(entry, '=');
    if (parts.size() != 2) {
      return err(Err::kParse,
                 strfmt("hybridize spec entry '%.*s' wants key=value",
                        static_cast<int>(entry.size()), entry.data()));
    }
    const std::string& key = parts[0];
    const std::string& value = parts[1];
    bool ok = false;
    if (key == "promote_after") {
      const auto n = parse_number<std::uint64_t>(value);
      ok = n.is_ok() && *n > 0;
      if (ok) opts.promote_after = *n;
    } else if (key == "threshold") {
      const auto x = parse_number<double>(value);
      ok = x.is_ok() && *x >= 0.0;
      if (ok) opts.threshold_cycles = *x;
    } else {
      return err(Err::kParse,
                 strfmt("hybridize spec: unknown key '%s'", key.c_str()));
    }
    if (!ok) {
      return err(Err::kParse,
                 strfmt("hybridize spec: bad value for '%s'", key.c_str()));
    }
  }
  if (!saw_mode) {
    return err(Err::kParse, "hybridize spec wants leading on or off");
  }
  return opts;
}

// `option <name> <value>` switches take exactly on/off, true/false or 1/0,
// so a typo is an error rather than a silent "off".
Result<bool> switch_option(const std::vector<std::string>& tokens,
                           int lineno) {
  const std::string& value = tokens[2];
  if (value == "on" || value == "true" || value == "1") return true;
  if (value == "off" || value == "false" || value == "0") return false;
  return err(Err::kParse, strfmt("line %d: %s wants on or off", lineno,
                                 tokens[1].c_str()));
}

// `option <name> <value>` counts, which must be at least one.
Result<int> positive_option(const std::vector<std::string>& tokens,
                            int lineno) {
  const auto n = parse_number<int>(tokens[2]);
  if (!n.is_ok() || *n < 1) {
    return err(Err::kParse, strfmt("line %d: %s wants a positive integer",
                                   lineno, tokens[1].c_str()));
  }
  return *n;
}

}  // namespace

Result<OverrideConfig> parse_override_config(const std::string& text) {
  OverrideConfig config;
  int lineno = 0;
  for (const std::string& raw : split(text, '\n')) {
    ++lineno;
    std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#') continue;

    std::vector<std::string> tokens;
    for (const std::string& tok : split(line, ' ')) {
      if (!std::string_view(trim(tok)).empty()) tokens.emplace_back(trim(tok));
    }
    if (tokens.empty()) continue;

    if (tokens[0] == "override") {
      if (tokens.size() != 3) {
        return err(Err::kParse,
                   strfmt("line %d: override takes 2 operands", lineno));
      }
      OverrideSpec spec;
      spec.legacy_name = tokens[1];
      spec.kernel_symbol = tokens[2];
      config.overrides.push_back(std::move(spec));
    } else if (tokens[0] == "option") {
      if (tokens.size() != 3) {
        return err(Err::kParse, strfmt("line %d: option takes 2 operands",
                                       lineno));
      }
      if (tokens[1] == "symbol_cache") {
        MV_ASSIGN_OR_RETURN(config.options.symbol_cache,
                            switch_option(tokens, lineno));
      } else if (tokens[1] == "sync_channel") {
        MV_ASSIGN_OR_RETURN(config.options.sync_channel,
                            switch_option(tokens, lineno));
      } else if (tokens[1] == "ring_depth") {
        MV_ASSIGN_OR_RETURN(config.options.ring_depth,
                            positive_option(tokens, lineno));
      } else if (tokens[1] == "service_workers") {
        MV_ASSIGN_OR_RETURN(config.options.service_workers,
                            positive_option(tokens, lineno));
      } else if (tokens[1] == "tenants") {
        MV_ASSIGN_OR_RETURN(config.options.tenants,
                            positive_option(tokens, lineno));
      } else if (tokens[1] == "watchdog") {
        const Result<int> mult =
            tokens[2] == "off" ? 0 : parse_number<int>(tokens[2]);
        if (!mult.is_ok() || *mult < 0) {
          return err(Err::kParse,
                     strfmt("line %d: watchdog wants a non-negative round-trip "
                            "multiple (0 or 'off' disables)",
                            lineno));
        }
        config.options.watchdog = *mult;
      } else if (tokens[1] == "spin_cycles") {
        const Result<long long> cycles =
            tokens[2] == "off" ? 0 : parse_number<long long>(tokens[2]);
        if (!cycles.is_ok() || *cycles < 0) {
          return err(Err::kParse,
                     strfmt("line %d: spin_cycles wants a non-negative cycle "
                            "count (0 or 'off' disables)",
                            lineno));
        }
        config.options.spin_cycles = *cycles;
      } else if (tokens[1] == "fault") {
        // Validate eagerly so a typo'd fault spec fails at parse time, not
        // when the runtime builds the plan.
        auto plan = FaultPlan::parse(tokens[2]);
        if (!plan.is_ok()) {
          return err(Err::kParse,
                     strfmt("line %d: %s", lineno,
                            plan.status().detail().c_str()));
        }
        config.options.fault_spec = tokens[2];
      } else if (tokens[1] == "hybridize") {
        auto opts = parse_hybridize_spec(tokens[2]);
        if (!opts.is_ok()) {
          return err(Err::kParse,
                     strfmt("line %d: %s", lineno,
                            opts.status().detail().c_str()));
        }
        config.options.hybridize = opts.value();
      } else {
        return err(Err::kParse,
                   strfmt("line %d: unknown option '%s'", lineno,
                          tokens[1].c_str()));
      }
    } else {
      return err(Err::kParse, strfmt("line %d: unknown directive '%s'",
                                     lineno, tokens[0].c_str()));
    }
  }
  return config;
}

const std::string& default_override_config() {
  static const std::string kDefault =
      "# Multiverse default overrides: pthread calls map to AeroKernel\n"
      "# threads with matching semantics.\n"
      "override pthread_create nk_thread_create\n"
      "override pthread_join nk_thread_join\n"
      "override pthread_exit nk_thread_exit\n";
  return kDefault;
}

}  // namespace mv::multiverse
