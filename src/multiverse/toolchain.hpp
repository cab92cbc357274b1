#pragma once

// The Multiverse toolchain. "Compiling to an HRT simply results in an
// executable that is a 'fat binary' containing additional code and data that
// enables kernel-mode execution in an environment that supports it." The
// toolchain embeds the AeroKernel image and the override configuration into
// the program's binary and inserts initialization hooks before main().

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "multiverse/config.hpp"
#include "ros/guest.hpp"
#include "support/result.hpp"
#include "vmm/hrt_image.hpp"

namespace mv::multiverse {

// The serialized fat binary: user program metadata + override config +
// embedded AeroKernel image, in one parseable blob (mirrors embedding the
// image in an ELF section).
class FatBinary {
 public:
  static constexpr std::uint32_t kMagic = 0x5646424d;  // "MBFV"

  std::string program_name;
  std::string override_config_text;
  std::vector<std::uint8_t> aerokernel_image;

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static Result<FatBinary> parse(std::span<const std::uint8_t> blob);
};

class Toolchain {
 public:
  // "To leverage Multiverse, a user must simply integrate their application
  // or runtime with the provided Makefile and rebuild it." build() is that
  // rebuild: it compiles the override config, embeds the (possibly custom)
  // AeroKernel image, and produces the fat binary.
  struct BuildInputs {
    std::string program_name = "a.out";
    std::string extra_override_config;  // appended to the defaults
    // Custom kernel image; the stock Nautilus image when empty.
    std::vector<std::uint8_t> custom_aerokernel;
  };

  static Result<FatBinary> build(const BuildInputs& inputs);

  // Parse + validate a fat binary back into its components (what the
  // Multiverse runtime does at program startup).
  struct Parsed {
    FatBinary binary;
    OverrideConfig config;
    vmm::HrtImage image;
  };
  static Result<Parsed> load(std::span<const std::uint8_t> blob);
};

}  // namespace mv::multiverse
