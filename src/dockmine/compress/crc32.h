// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum in
// the gzip member trailer, shard spill runs and wire frames. A thin value
// type over zlib's crc32_z, which folds many bytes per step instead of one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dockmine::compress {

class Crc32 {
 public:
  void update(const void* data, std::size_t size) noexcept;
  void update(std::string_view text) noexcept {
    update(text.data(), text.size());
  }

  std::uint32_t value() const noexcept { return state_; }
  void reset() noexcept { state_ = 0; }

  static std::uint32_t of(std::string_view data) noexcept {
    Crc32 crc;
    crc.update(data);
    return crc.value();
  }

 private:
  std::uint32_t state_ = 0;  ///< zlib's running CRC (already finalized)
};

}  // namespace dockmine::compress
