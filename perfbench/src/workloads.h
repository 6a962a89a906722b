// The four benchmark workloads. Each has a measured run (end-to-end
// metrics, or per-layer metrics when traced) and an independent check that
// runs in a separate process after it, reading what the measured run left
// in its work directory.
#pragma once

#include <string>

#include "common.h"

namespace dmbench {

Outcome run_bytes_full(const Args& args);
Outcome check_bytes_full(const Args& args);

Outcome run_metadata_scale(const Args& args);
Outcome check_metadata_scale(const Args& args);

Outcome run_serve_mixed(const Args& args);
Outcome check_serve_mixed(const Args& args);

Outcome run_distributed_k2(const Args& args);
Outcome check_distributed_k2(const Args& args);

}  // namespace dmbench
