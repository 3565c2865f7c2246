#include "ads/fault_targets.h"

#include <stdexcept>
#include <string>

namespace drivefi::ads {

std::size_t target_index(std::string_view name) {
  for (std::size_t i = 0; i < kFaultTargets.size(); ++i)
    if (kFaultTargets[i].name == name) return i;
  throw std::out_of_range("no fault target " + std::string(name));
}

}  // namespace drivefi::ads
