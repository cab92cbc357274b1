#include "hw/costs.hpp"

namespace mv::hw {

const CostModel& costs() noexcept {
  static const CostModel model;
  return model;
}

}  // namespace mv::hw
