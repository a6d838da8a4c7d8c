// Communication generation (Section 4.3b).
//
// For every C edge of the LCG the compiler must emit communication before
// the drain phase. The paper has two patterns: global communications, a
// redistribution in which every element whose owner changes between the
// source and drain distributions moves with a single-sided put; and frontier
// communications, refreshes of the replicated overlap sub-regions at the
// boundaries between neighbouring processors' chunks. Schedules are generated
// for the global ones; a frontier refresh is decided and priced in closed
// form by the cost model (dsm::frontierRefresh), which is all the plan needs.
// Message aggregation packs all element ranges with the same (source,
// destination) pair into one message.
//
// A schedule is periodic: both owner maps of a redistribution repeat every
// joint owner period lambda, so each message stores the strided sections of
// one period [0, lambda), which recur `repeats` times at offsets r * lambda,
// plus the sections of the tail [repeats * lambda, size). Words, messages,
// range counts and the estimated time come in closed form; forEachRange()
// expands the maximal element ranges when they are wanted one by one.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dsm/machine.hpp"

namespace ad::comm {

/// A contiguous run of array elements travelling between two processors.
struct Range {
  std::int64_t begin = 0;  ///< first element
  std::int64_t end = 0;    ///< one past last

  [[nodiscard]] std::int64_t words() const noexcept { return end - begin; }
};

/// `count` runs of `length` elements each, the i-th starting at
/// begin + i * stride.
struct Section {
  std::int64_t begin = 0;
  std::int64_t length = 0;
  std::int64_t stride = 0;
  std::int64_t count = 1;

  /// One past the last element of the last run.
  [[nodiscard]] std::int64_t end() const noexcept { return begin + (count - 1) * stride + length; }
};

/// One aggregated put: everything processor `src` sends to `dst`.
struct Message {
  std::int64_t src = 0;
  std::int64_t dst = 0;
  std::vector<Section> period;  ///< sections of [0, lambda), address order
  std::vector<Section> tail;    ///< sections of [repeats * lambda, size), address order
};

/// The put schedule of one global redistribution.
class CommSchedule {
 public:
  /// `period` is lambda; the messages' period sections recur `repeats` times.
  CommSchedule(std::string array, std::int64_t period, std::int64_t repeats,
               std::vector<Message> messages)
      : array_(std::move(array)),
        period_(period),
        repeats_(repeats),
        messages_(std::move(messages)) {}

  [[nodiscard]] const std::string& array() const noexcept { return array_; }
  [[nodiscard]] std::int64_t period() const noexcept { return period_; }
  [[nodiscard]] std::int64_t repeats() const noexcept { return repeats_; }
  [[nodiscard]] const std::vector<Message>& messages() const noexcept { return messages_; }
  [[nodiscard]] std::size_t messageCount() const noexcept { return messages_.size(); }
  [[nodiscard]] std::int64_t totalWords() const;
  /// Words of one message over the whole array.
  [[nodiscard]] std::int64_t words(const Message& m) const;
  /// Maximal element ranges of one message (runs that touch across a period
  /// boundary count once), and of all messages.
  [[nodiscard]] std::int64_t rangeCount(const Message& m) const;
  [[nodiscard]] std::int64_t rangeCount() const;

  /// Calls fn(Range) for the maximal ranges of `m` in address order. When fn
  /// returns bool, false stops the expansion.
  template <class Fn>
  void forEachRange(const Message& m, Fn&& fn) const;

  /// Estimated execution time (aggregated puts in parallel across sources).
  [[nodiscard]] double time(const dsm::MachineParams& machine) const;

  /// SHMEM-style pseudo-code of the schedule ("PE s: put(X[b..e) -> PE d)").
  [[nodiscard]] std::string str() const;

 private:
  std::string array_;
  std::int64_t period_;
  std::int64_t repeats_;
  std::vector<Message> messages_;
};

template <class Fn>
void CommSchedule::forEachRange(const Message& m, Fn&& fn) const {
  // Ranges are emitted one behind, so a range that ends where the next one
  // begins (a run crossing a period boundary) is merged first.
  bool open = false;
  Range pending;
  const auto add = [&](std::int64_t begin, std::int64_t end) {
    if (open && pending.end == begin) {
      pending.end = end;
      return true;
    }
    if (open) {
      if constexpr (std::is_same_v<std::invoke_result_t<Fn&, Range>, bool>) {
        if (!fn(pending)) return false;
      } else {
        fn(pending);
      }
    }
    pending = Range{begin, end};
    open = true;
    return true;
  };
  const auto sections = [&](const std::vector<Section>& list, std::int64_t offset) {
    for (const Section& s : list) {
      for (std::int64_t i = 0; i < s.count; ++i) {
        const std::int64_t b = offset + s.begin + i * s.stride;
        if (!add(b, b + s.length)) return false;
      }
    }
    return true;
  };
  for (std::int64_t r = 0; r < repeats_ && !m.period.empty(); ++r) {
    if (!sections(m.period, r * period_)) return;
  }
  if (!sections(m.tail, 0)) return;
  if (open) fn(pending);
}

/// Global redistribution of `size` elements from distribution `from` to `to`,
/// generated over one joint owner period plus the tail. Both must be
/// owner-bearing.
[[nodiscard]] CommSchedule generateGlobal(const std::string& array, std::int64_t size,
                                          const dsm::DataDistribution& from,
                                          const dsm::DataDistribution& to,
                                          std::int64_t processors);

/// Verifies that `schedule` moves exactly the elements whose owner changes
/// between `from` and `to`, each exactly once, with correct endpoints. Both
/// owner maps repeat with the schedule's period, so checking one period and
/// the tail element by element is equivalent to checking every element.
[[nodiscard]] bool verifiesRedistribution(const CommSchedule& schedule, std::int64_t size,
                                          const dsm::DataDistribution& from,
                                          const dsm::DataDistribution& to,
                                          std::int64_t processors);

}  // namespace ad::comm
