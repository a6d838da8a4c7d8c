#include "comm/schedule.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "dsm/closed_form.hpp"
#include "support/diagnostics.hpp"

namespace ad::comm {

std::int64_t Message::words() const {
  std::int64_t n = 0;
  for (const auto& r : ranges) n += r.words();
  return n;
}

std::int64_t CommSchedule::totalWords() const {
  std::int64_t n = 0;
  for (const auto& m : messages_) n += m.words();
  return n;
}

double CommSchedule::time(const dsm::MachineParams& machine) const {
  // Each source processor issues its puts back-to-back; sources proceed in
  // parallel, so the schedule takes as long as the busiest source.
  std::map<std::int64_t, double> perSource;
  for (const auto& m : messages_) {
    perSource[m.src] +=
        machine.putLatency + static_cast<double>(m.words()) * machine.perWord;
  }
  double worst = 0.0;
  for (const auto& [src, t] : perSource) worst = std::max(worst, t);
  return worst;
}

std::string CommSchedule::str() const {
  std::ostringstream os;
  os << (pattern_ == Pattern::kGlobal ? "global" : "frontier") << " communication for "
     << array_ << " (" << messages_.size() << " messages, " << totalWords() << " words)\n";
  for (const auto& m : messages_) {
    os << "  PE " << m.src << " -> PE " << m.dst << " (" << m.words() << " words):";
    const std::size_t shown = std::min<std::size_t>(4, m.ranges.size());
    for (std::size_t i = 0; i < shown; ++i) {
      os << " put " << array_ << "[" << m.ranges[i].begin << ".." << m.ranges[i].end << ")";
    }
    if (m.ranges.size() > shown) os << " ... (" << m.ranges.size() - shown << " more ranges)";
    os << "\n";
  }
  return os.str();
}

namespace {

/// Per-(src, dst) range lists, filled in address order and emitted as
/// messages in (src, dst) order with contiguous ranges coalesced.
class Aggregator {
 public:
  /// Adds [begin, end) to the src -> dst message. Ranges of one pair must
  /// arrive with non-decreasing begins; touching or overlapping ones merge.
  void add(std::int64_t src, std::int64_t dst, std::int64_t begin, std::int64_t end) {
    auto& ranges = ranges_[{src, dst}];
    if (!ranges.empty() && ranges.back().end >= begin) {
      ranges.back().end = std::max(ranges.back().end, end);
    } else {
      ranges.push_back(Range{begin, end});
    }
  }

  [[nodiscard]] std::vector<Message> messages() && {
    std::vector<Message> out;
    for (auto& [pair, ranges] : ranges_) {
      out.push_back(Message{pair.first, pair.second, std::move(ranges)});
    }
    return out;
  }

 private:
  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<Range>> ranges_;
};

}  // namespace

CommSchedule generateGlobal(const std::string& array, std::int64_t size,
                            const dsm::DataDistribution& from, const dsm::DataDistribution& to,
                            std::int64_t processors) {
  AD_REQUIRE(from.hasOwner() && to.hasOwner(),
             "global redistribution requires owner-bearing endpoints");
  Aggregator moves;
  dsm::forEachOwnerRun(from, to, processors, 0, size,
                       [&](std::int64_t begin, std::int64_t end, std::int64_t src,
                           std::int64_t dst) {
                         if (src != dst) moves.add(src, dst, begin, end);
                       });
  return CommSchedule(array, Pattern::kGlobal, std::move(moves).messages());
}

CommSchedule generateFrontier(const std::string& array, std::int64_t size,
                              const dsm::DataDistribution& dist, std::int64_t overlap,
                              std::int64_t processors) {
  AD_REQUIRE(dist.kind == dsm::DataDistribution::Kind::kBlockCyclic,
             "frontier update requires a BLOCK-CYCLIC distribution");
  AD_REQUIRE(overlap >= 1, "overlap width must be positive");
  Aggregator moves;
  // The owner of each block refreshes its replicated copy of the first
  // `overlap` elements of the following block, which the next owner holds.
  for (std::int64_t blockStart = 0; blockStart < size; blockStart += dist.block) {
    const std::int64_t nextStart = blockStart + dist.block;
    if (nextStart >= size) break;
    const std::int64_t dst = dist.owner(blockStart, processors);
    const std::int64_t src = dist.owner(nextStart, processors);
    if (src == dst) continue;
    moves.add(src, dst, nextStart, std::min(size, nextStart + overlap));
  }
  return CommSchedule(array, Pattern::kFrontier, std::move(moves).messages());
}

bool verifiesRedistribution(const CommSchedule& schedule, std::int64_t size,
                            const dsm::DataDistribution& from, const dsm::DataDistribution& to,
                            std::int64_t processors) {
  std::vector<int> covered(static_cast<std::size_t>(size), 0);
  for (const auto& m : schedule.messages()) {
    for (const auto& r : m.ranges) {
      for (std::int64_t a = r.begin; a < r.end; ++a) {
        if (a < 0 || a >= size) return false;
        if (from.owner(a, processors) != m.src) return false;
        if (to.owner(a, processors) != m.dst) return false;
        if (m.src == m.dst) return false;
        ++covered[static_cast<std::size_t>(a)];
      }
    }
  }
  for (std::int64_t a = 0; a < size; ++a) {
    const bool moves = from.owner(a, processors) != to.owner(a, processors);
    if (covered[static_cast<std::size_t>(a)] != (moves ? 1 : 0)) return false;
  }
  return true;
}

}  // namespace ad::comm
