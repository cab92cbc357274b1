#pragma once

// AeroKernel symbol table. Overrides resolve legacy function names to HRT
// virtual addresses through this table; the paper notes the lookup happens on
// every overridden call ("so incurs a non-trivial overhead") and suggests an
// ELF-style symbol cache — both behaviours are implemented here and compared
// by bench/abl_symbol_cache.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hw/core.hpp"
#include "support/result.hpp"
#include "vmm/hrt_image.hpp"

namespace mv::naut {

class SymbolTable {
 public:
  // Bind the image's symbols at `base_vaddr` (the image's HRT load address).
  void load(const vmm::HrtImage& image, std::uint64_t base_vaddr);

  // Resolve with a charged linear scan (the default Multiverse behaviour).
  // With the cache enabled, repeat lookups cost a hash probe instead.
  Result<std::uint64_t> resolve(hw::Core& core, std::string_view name);

  void set_cache_enabled(bool enabled) noexcept { cache_enabled_ = enabled; }

  [[nodiscard]] std::uint64_t lookups() const noexcept { return lookups_; }
  [[nodiscard]] std::uint64_t cache_hits() const noexcept {
    return cache_hits_;
  }

 private:
  struct Entry {
    std::string name;
    std::uint64_t vaddr;
  };
  std::vector<Entry> symbols_;
  std::unordered_map<std::string, std::uint64_t> cache_;
  bool cache_enabled_ = false;
  std::uint64_t lookups_ = 0;
  std::uint64_t cache_hits_ = 0;
};

}  // namespace mv::naut
