#include "comm/schedule.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

#include "dsm/closed_form.hpp"
#include "obs/obs.hpp"
#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"

namespace ad::comm {

namespace {

std::int64_t sectionWords(const std::vector<Section>& list) {
  std::int64_t n = 0;
  for (const auto& s : list) n = checkedAdd(n, checkedMul(s.length, s.count));
  return n;
}

std::int64_t sectionRuns(const std::vector<Section>& list) {
  std::int64_t n = 0;
  for (const auto& s : list) n += s.count;
  return n;
}

}  // namespace

std::int64_t CommSchedule::words(const Message& m) const {
  return checkedAdd(checkedMul(sectionWords(m.period), repeats_), sectionWords(m.tail));
}

std::int64_t CommSchedule::totalWords() const {
  std::int64_t n = 0;
  for (const auto& m : messages_) n = checkedAdd(n, words(m));
  return n;
}

std::int64_t CommSchedule::rangeCount(const Message& m) const {
  std::int64_t n = checkedAdd(checkedMul(sectionRuns(m.period), repeats_), sectionRuns(m.tail));
  if (m.period.empty() || repeats_ == 0) return n;
  // A period whose last run ends at lambda joins the next copy's first run
  // when that starts at 0, and the last copy's joins a tail run starting at
  // repeats * lambda.
  if (m.period.back().end() != period_) return n;
  if (m.period.front().begin == 0) n -= repeats_ - 1;
  if (!m.tail.empty() && m.tail.front().begin == repeats_ * period_) n -= 1;
  return n;
}

std::int64_t CommSchedule::rangeCount() const {
  std::int64_t n = 0;
  for (const auto& m : messages_) n += rangeCount(m);
  return n;
}

double CommSchedule::time(const dsm::MachineParams& machine) const {
  // Each source processor issues its puts back-to-back; sources proceed in
  // parallel, so the schedule takes as long as the busiest source.
  std::map<std::int64_t, double> perSource;
  for (const auto& m : messages_) {
    perSource[m.src] += machine.putLatency + static_cast<double>(words(m)) * machine.perWord;
  }
  double worst = 0.0;
  for (const auto& [src, t] : perSource) worst = std::max(worst, t);
  return worst;
}

std::string CommSchedule::str() const {
  std::ostringstream os;
  os << "global communication for " << array_ << " (" << messages_.size() << " messages, "
     << totalWords() << " words)\n";
  for (const auto& m : messages_) {
    os << "  PE " << m.src << " -> PE " << m.dst << " (" << words(m) << " words):";
    std::int64_t shown = 0;
    forEachRange(m, [&](const Range& r) {
      if (shown == 4) return false;
      os << " put " << array_ << "[" << r.begin << ".." << r.end << ")";
      ++shown;
      return true;
    });
    const std::int64_t ranges = rangeCount(m);
    if (ranges > shown) os << " ... (" << ranges - shown << " more ranges)";
    os << "\n";
  }
  return os.str();
}

namespace {

/// The sections of one message part, built from its ranges in address
/// order: touching or overlapping ranges coalesce, then runs of equal length
/// at a constant stride share one section.
class SectionBuilder {
 public:
  void add(std::int64_t begin, std::int64_t end) {
    if (open_ && pending_.end >= begin) {
      pending_.end = std::max(pending_.end, end);
      return;
    }
    flush();
    pending_ = Range{begin, end};
    open_ = true;
  }

  [[nodiscard]] std::vector<Section> finish() && {
    flush();
    return std::move(sections_);
  }

 private:
  void flush() {
    if (!open_) return;
    open_ = false;
    const std::int64_t length = pending_.words();
    if (!sections_.empty()) {
      Section& s = sections_.back();
      const std::int64_t stride = pending_.begin - (s.begin + (s.count - 1) * s.stride);
      if (s.length == length && (s.count == 1 || s.stride == stride)) {
        s.stride = stride;
        ++s.count;
        return;
      }
    }
    sections_.push_back(Section{pending_.begin, length, 0, 1});
  }

  bool open_ = false;
  Range pending_;
  std::vector<Section> sections_;
};

/// Per-(src, dst) section lists of the period and the tail, filled in
/// address order and emitted as messages in (src, dst) order.
class Aggregator {
 public:
  explicit Aggregator(std::int64_t processors) : processors_(processors) {
    (void)checkedMul(processors, processors);  // pair keys src * H + dst stay exact
  }

  /// Adds [begin, end) to the src -> dst message's period or tail part.
  void add(std::int64_t src, std::int64_t dst, bool inTail, std::int64_t begin,
           std::int64_t end) {
    Parts& parts = pairs_[src * processors_ + dst];
    (inTail ? parts.tail : parts.period).add(begin, end);
  }

  [[nodiscard]] std::vector<Message> messages() && {
    std::vector<std::int64_t> keys;
    keys.reserve(pairs_.size());
    for (const auto& entry : pairs_) keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());
    std::vector<Message> out;
    out.reserve(keys.size());
    for (const std::int64_t key : keys) {
      Parts& parts = pairs_.at(key);
      out.push_back(Message{key / processors_, key % processors_, std::move(parts.period).finish(),
                            std::move(parts.tail).finish()});
    }
    return out;
  }

 private:
  struct Parts {
    SectionBuilder period;
    SectionBuilder tail;
  };
  std::int64_t processors_;
  std::unordered_map<std::int64_t, Parts> pairs_;
};

}  // namespace

CommSchedule generateGlobal(const std::string& array, std::int64_t size,
                            const dsm::DataDistribution& from, const dsm::DataDistribution& to,
                            std::int64_t processors) {
  AD_REQUIRE(from.hasOwner() && to.hasOwner(),
             "global redistribution requires owner-bearing endpoints");
  Aggregator moves(processors);
  const dsm::OwnerPeriod p = dsm::walkOwnerPeriod(
      from, to, size, processors,
      [&](std::int64_t begin, std::int64_t end, std::int64_t src, std::int64_t dst,
          bool inTail) {
        if (src != dst) moves.add(src, dst, inTail, begin, end);
      });
  obs::metrics().counter("ad.comm.runs_walked").add(p.runsWalked);
  return CommSchedule(array, p.lambda, p.repeats, std::move(moves).messages());
}

bool verifiesRedistribution(const CommSchedule& schedule, std::int64_t size,
                            const dsm::DataDistribution& from, const dsm::DataDistribution& to,
                            std::int64_t processors) {
  // The period must tile [0, repeats * lambda) inside the array and leave a
  // tail shorter than one period; when it recurs it must be a period of
  // both owner maps, so every copy moves what the first one does.
  const std::int64_t lambda = schedule.period();
  const std::int64_t repeats = schedule.repeats();
  if (size < 0 || lambda < 0 || lambda > size || repeats < 0 || (size > 0 && lambda == 0)) {
    return false;
  }
  const auto tailBegin = tryMul(lambda, repeats);
  if (!tailBegin || *tailBegin > size || (lambda > 0 && size - *tailBegin >= lambda)) {
    return false;
  }
  if (repeats > 1 && (lambda % dsm::ownerPeriod(from, processors) != 0 ||
                      lambda % dsm::ownerPeriod(to, processors) != 0)) {
    return false;
  }

  // Every scheduled element of [lo, hi) moves from src to dst, once.
  const auto cover = [&](const Message& m, const std::vector<Section>& list, std::int64_t lo,
                         std::int64_t hi, std::vector<char>& covered, std::int64_t& count) {
    for (const Section& s : list) {
      if (s.length < 1 || s.count < 1) return false;
      for (std::int64_t i = 0; i < s.count; ++i) {
        const auto step = tryMul(i, s.stride);
        const auto runBegin = step ? tryAdd(s.begin, *step) : std::nullopt;
        if (!runBegin) return false;
        for (std::int64_t j = 0; j < s.length; ++j) {
          const auto a = tryAdd(*runBegin, j);
          if (!a || *a < lo || *a >= hi) return false;
          if (from.owner(*a, processors) != m.src || to.owner(*a, processors) != m.dst) {
            return false;
          }
          char& c = covered[static_cast<std::size_t>(*a - lo)];
          if (c != 0) return false;
          c = 1;
          ++count;
        }
      }
    }
    return true;
  };
  std::vector<char> periodCovered(static_cast<std::size_t>(lambda), 0);
  std::vector<char> tailCovered(static_cast<std::size_t>(size - *tailBegin), 0);
  std::int64_t periodCount = 0;
  std::int64_t tailCount = 0;
  for (const auto& m : schedule.messages()) {
    if (m.src == m.dst) return false;
    if (!cover(m, m.period, 0, lambda, periodCovered, periodCount)) return false;
    if (!cover(m, m.tail, *tailBegin, size, tailCovered, tailCount)) return false;
  }

  // Covered elements all move, so equal counts mean every moving element of
  // the period and of the tail is covered.
  std::int64_t periodMoved = 0;
  std::int64_t tailMoved = 0;
  const auto moved = [&](std::int64_t& n) {
    return [&n](std::int64_t b, std::int64_t e, std::int64_t src, std::int64_t dst) {
      if (src != dst) n += e - b;
    };
  };
  dsm::forEachOwnerRun(from, to, processors, 0, lambda, moved(periodMoved));
  dsm::forEachOwnerRun(from, to, processors, *tailBegin, size, moved(tailMoved));
  return periodCount == periodMoved && tailCount == tailMoved;
}

}  // namespace ad::comm
