#include "multiverse/toolchain.hpp"

namespace mv::multiverse {
namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_blob(std::vector<std::uint8_t>& out, const void* data,
              std::uint32_t len) {
  put_u32(out, len);
  const auto* p = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + len);
}

Result<std::uint32_t> get_u32(std::span<const std::uint8_t> blob,
                              std::size_t& pos) {
  if (pos + 4 > blob.size()) return err(Err::kParse, "truncated fat binary");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{blob[pos + i]} << (8 * i);
  pos += 4;
  return v;
}

Result<std::vector<std::uint8_t>> get_blob(std::span<const std::uint8_t> blob,
                                           std::size_t& pos) {
  MV_ASSIGN_OR_RETURN(const std::uint32_t len, get_u32(blob, pos));
  if (pos + len > blob.size()) return err(Err::kParse, "truncated blob");
  std::vector<std::uint8_t> out(blob.begin() + static_cast<long>(pos),
                                blob.begin() + static_cast<long>(pos + len));
  pos += len;
  return out;
}

}  // namespace

std::vector<std::uint8_t> FatBinary::serialize() const {
  std::vector<std::uint8_t> out;
  put_u32(out, kMagic);
  put_blob(out, program_name.data(),
           static_cast<std::uint32_t>(program_name.size()));
  put_blob(out, override_config_text.data(),
           static_cast<std::uint32_t>(override_config_text.size()));
  put_blob(out, aerokernel_image.data(),
           static_cast<std::uint32_t>(aerokernel_image.size()));
  return out;
}

Result<FatBinary> FatBinary::parse(std::span<const std::uint8_t> blob) {
  std::size_t pos = 0;
  MV_ASSIGN_OR_RETURN(const std::uint32_t magic, get_u32(blob, pos));
  if (magic != kMagic) return err(Err::kParse, "bad fat binary magic");
  FatBinary fb;
  MV_ASSIGN_OR_RETURN(const auto name, get_blob(blob, pos));
  fb.program_name.assign(name.begin(), name.end());
  MV_ASSIGN_OR_RETURN(const auto cfg, get_blob(blob, pos));
  fb.override_config_text.assign(cfg.begin(), cfg.end());
  MV_ASSIGN_OR_RETURN(fb.aerokernel_image, get_blob(blob, pos));
  return fb;
}

Result<FatBinary> Toolchain::build(const BuildInputs& inputs) {
  FatBinary fb;
  fb.program_name = inputs.program_name;
  fb.override_config_text =
      default_override_config() + inputs.extra_override_config;
  // Validate the config at build time, like a real toolchain would.
  MV_RETURN_IF_ERROR(parse_override_config(fb.override_config_text).status());

  if (inputs.custom_aerokernel.empty()) {
    fb.aerokernel_image =
        vmm::HrtImageBuilder::default_nautilus_image().serialize();
  } else {
    // Validate the supplied kernel image.
    MV_RETURN_IF_ERROR(vmm::HrtImage::parse(inputs.custom_aerokernel).status());
    fb.aerokernel_image = inputs.custom_aerokernel;
  }
  return fb;
}

Result<Toolchain::Parsed> Toolchain::load(
    std::span<const std::uint8_t> blob) {
  Parsed parsed;
  MV_ASSIGN_OR_RETURN(parsed.binary, FatBinary::parse(blob));
  MV_ASSIGN_OR_RETURN(parsed.config, parse_override_config(
                                         parsed.binary.override_config_text));
  MV_ASSIGN_OR_RETURN(parsed.image,
                      vmm::HrtImage::parse(parsed.binary.aerokernel_image));
  return parsed;
}

}  // namespace mv::multiverse
