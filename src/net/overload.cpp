#include "net/overload.hpp"

namespace garnet::net {

std::string_view to_string(OverflowPolicy policy) {
  switch (policy) {
    case OverflowPolicy::kDropNewest: return "drop_newest";
    case OverflowPolicy::kDropOldest: return "drop_oldest";
  }
  return "unknown";
}

std::string_view to_string(TrafficClass cls) {
  switch (cls) {
    case TrafficClass::kControl: return "control";
    case TrafficClass::kData: return "data";
  }
  return "unknown";
}

}  // namespace garnet::net
