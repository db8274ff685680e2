#include "calibrate.hpp"

#include <algorithm>
#include <bitset>
#include <chrono>
#include <cmath>
#include <ctime>
#include <functional>
#include <numeric>
#include <queue>
#include <utility>

namespace switchbench {
namespace {

constexpr std::size_t kPeers = 4096;
constexpr std::size_t kNeighbours = 12;
constexpr std::size_t kWindow = 512;  ///< buffer-map bits per peer
constexpr int kRounds = 1;
constexpr std::uint32_t kProbeSlots = 4u << 20;  ///< 16 MB of uint32_t
constexpr int kProbeBurst = 5000;                ///< loads per burst
constexpr auto kProbePeriod = std::chrono::milliseconds(50);

/// Fixed pseudo-random input: a buffer map and a neighbour list per peer.
struct Overlay {
  std::vector<std::bitset<kWindow>> maps;
  std::vector<std::uint32_t> neighbours;  ///< kNeighbours per peer

  Overlay() : maps(kPeers), neighbours(kPeers * kNeighbours) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (auto& map : maps) {
      for (std::size_t bit = 0; bit < kWindow; ++bit) map[bit] = next() % 3 != 0;
    }
    for (std::uint32_t& n : neighbours) n = static_cast<std::uint32_t>(next() % kPeers);
  }
};

/// One round: every peer counts, for each segment it misses, how many
/// neighbours hold it, sorts those candidates rarest first and schedules
/// the first few through an event heap; the heap is then drained.
std::uint64_t round(Overlay& overlay, int salt) {
  std::uint64_t checksum = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> candidates;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> events;
  for (std::size_t p = 0; p < kPeers; ++p) {
    candidates.clear();
    const std::bitset<kWindow>& own = overlay.maps[p];
    for (std::size_t bit = 0; bit < kWindow; ++bit) {
      if (own[bit]) continue;
      std::uint32_t holders = 0;
      for (std::size_t k = 0; k < kNeighbours; ++k) {
        holders += overlay.maps[overlay.neighbours[p * kNeighbours + k]][bit] ? 1u : 0u;
      }
      if (holders > 0) candidates.emplace_back(holders, static_cast<std::uint32_t>(bit));
    }
    std::sort(candidates.begin(), candidates.end());
    const std::size_t take = std::min<std::size_t>(candidates.size(), 8);
    for (std::size_t c = 0; c < take; ++c) {
      events.push((static_cast<std::uint64_t>(candidates[c].first * 7919 + p + salt) << 20) |
                  candidates[c].second);
    }
  }
  while (!events.empty()) {
    const std::uint64_t e = events.top();
    events.pop();
    checksum = checksum * 31 + e;
    overlay.maps[(e >> 20) % kPeers].flip(e & (kWindow - 1));
  }
  return checksum;
}

double cpu_seconds(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

}  // namespace

double thread_cpu_s() { return cpu_seconds(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu_s() { return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double calibration_slice() {
  // The overlay is rebuilt for every slice so each slice starts from the
  // same state and does exactly the same work.
  const double start = thread_cpu_s();
  Overlay overlay;
  std::uint64_t checksum = 0;
  for (int r = 0; r < kRounds; ++r) checksum += round(overlay, r);
  const double seconds = thread_cpu_s() - start;
  static volatile std::uint64_t sink = 0;
  sink = sink + checksum;
  return seconds;
}

LoadProbe::LoadProbe() : next_(kProbeSlots) {
  // One random cycle through every slot (Sattolo's algorithm), so a chase
  // never settles into a short, cache-resident loop.
  std::iota(next_.begin(), next_.end(), 0u);
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (std::uint32_t i = kProbeSlots - 1; i > 0; --i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(next_[i], next_[static_cast<std::uint32_t>((x >> 33) % i)]);
  }
  thread_ = std::thread([this] { loop(); });
}

LoadProbe::~LoadProbe() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

void LoadProbe::loop() {
  std::uint32_t slot = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    const double start = thread_cpu_s();
    for (int i = 0; i < kProbeBurst; ++i) slot = next_[slot];
    const double end = thread_cpu_s();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      totals_.ns += 1e9 * (end - start);
      totals_.loads += kProbeBurst;
      totals_.cpu_s = end;
      last_ns_ = 1e9 * (end - start) / kProbeBurst;
    }
    std::this_thread::sleep_for(kProbePeriod);
  }
  static volatile std::uint32_t sink = 0;
  sink = sink + slot;
}

LoadProbe::Mark LoadProbe::mark() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totals_;
}

double LoadProbe::mean_load_ns(const Mark& from, const Mark& to) const {
  if (to.loads > from.loads) return (to.ns - from.ns) / static_cast<double>(to.loads - from.loads);
  std::lock_guard<std::mutex> lock(mutex_);
  return last_ns_ > 0.0 ? last_ns_ : kNominalLoadNs;
}

double speed_factor(double slice_before_s, double slice_after_s, double load_ns) {
  const double slice = 2.0 * kNominalSliceS / (slice_before_s + slice_after_s);
  return std::sqrt(slice * kNominalLoadNs / load_ns);
}

}  // namespace switchbench
