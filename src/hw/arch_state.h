// Simulated processor architectural state for the hardware fault model.
// Live ADS variables are mirrored into a register file; an injection picks
// a (register, bit, dynamic-instruction-count) triple exactly as the
// paper's GPU/CPU injectors do ("Each injected fault is characterized by
// its location (its dynamic instruction count) and the injected value",
// §II-C). ECC-protected structures route through the SECDED model and
// mask single-bit faults; unprotected structures leak corruption back
// into the bound ADS variable.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "hw/bitflip.h"
#include "hw/secded.h"
#include "util/rng.h"

namespace drivefi::hw {

enum class Protection {
  kNone,    // flip lands in the value
  kSecded,  // single-bit corrected, double-bit detected (drops the update)
};

// A register bound to a live ADS variable via get/set closures; callers
// address registers by their bind() order.
struct BoundRegister {
  Protection protection = Protection::kNone;
  std::function<double()> get;
  std::function<void(double)> set;
};

struct InjectionResult {
  bool masked = false;             // ECC corrected or bit had no effect
  bool detected = false;           // ECC detected (update suppressed)
  CorruptionKind kind = CorruptionKind::kNone;
  double original = 0.0;
  double corrupted = 0.0;
};

class ArchState {
 public:
  // Mutable architectural state. The register file itself is a view over
  // live ADS variables (captured by the pipeline's channel snapshots), so
  // the only state owned here is the dynamic instruction counter.
  struct Snapshot {
    std::uint64_t instructions_retired = 0;

    bool operator==(const Snapshot&) const = default;
  };

  Snapshot snapshot() const { return {instructions_}; }
  void restore(const Snapshot& snap) { instructions_ = snap.instructions_retired; }
  bool state_equals(const Snapshot& snap) const {
    return instructions_ == snap.instructions_retired;
  }

  void bind(BoundRegister reg);
  std::size_t register_count() const { return registers_.size(); }
  const BoundRegister& reg(std::size_t i) const { return registers_[i]; }

  // Dynamic instruction counter: the ADS pipeline advances it as modules
  // execute; injections trigger when the counter crosses their index.
  void retire_instructions(std::uint64_t count) { instructions_ += count; }
  std::uint64_t instructions_retired() const { return instructions_; }

  // Inject `bit_count` random distinct bit flips into register `reg_index`.
  InjectionResult inject(std::size_t reg_index, unsigned bit_count,
                         util::Rng& rng);
  // Deterministic single-bit variant.
  InjectionResult inject_bit(std::size_t reg_index, unsigned bit);

 private:
  InjectionResult apply(const BoundRegister& reg, std::uint64_t flip_mask);

  std::vector<BoundRegister> registers_;
  std::uint64_t instructions_ = 0;
};

}  // namespace drivefi::hw
