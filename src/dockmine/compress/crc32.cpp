#include "dockmine/compress/crc32.h"

#include <zlib.h>

namespace dockmine::compress {

void Crc32::update(const void* data, std::size_t size) noexcept {
  if (size == 0) return;  // zlib reads a null buffer as "return the seed"
  state_ = static_cast<std::uint32_t>(
      crc32_z(state_, static_cast<const Bytef*>(data), size));
}

}  // namespace dockmine::compress
