#pragma once

namespace mapbench {

/// The benchmark's own tests (seeded streams, digest and model-output
/// reproducibility, detection of a corrupted report). Returns the exit code.
[[nodiscard]] int run_selftest();

}  // namespace mapbench
