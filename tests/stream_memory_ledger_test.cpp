// The per-plane memory ledger against the allocator's own books: on a fixed
// small churn run, the planes EngineStats reports must add up to within 10 %
// of the heap the engine actually holds, as glibc's mallinfo2 counts it
// (in-use chunks plus mmapped blocks).  A plane that grows without being
// counted — or a ledger entry that double-counts — moves the sum out of the
// band.  glibc-only; skipped under ASan/TSan, whose allocators replace
// malloc's books.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>

#if defined(__has_include)
#if __has_include(<malloc.h>)
#include <malloc.h>
#endif
#endif

#include "experiments/config.hpp"
#include "experiments/scenario.hpp"
#include "stream/engine.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GS_LEDGER_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GS_LEDGER_SANITIZED 1
#endif
#endif

#if defined(__GLIBC__) && defined(__GLIBC_PREREQ)
#if __GLIBC_PREREQ(2, 33) && !defined(GS_LEDGER_SANITIZED)
#define GS_LEDGER_MALLINFO 1
#endif
#endif

namespace gs::stream {
namespace {

#ifdef GS_LEDGER_MALLINFO
std::size_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}
#endif

TEST(MemoryLedger, PlanesSumToTheAllocatorsInUseBytes) {
#ifndef GS_LEDGER_MALLINFO
  GTEST_SKIP() << "needs glibc >= 2.33 mallinfo2 and an uninstrumented allocator";
#else
  const exp::Config config = exp::Config::paper_dynamic(300, exp::AlgorithmKind::kFast, 3);
  const std::size_t before = heap_in_use();
  const std::unique_ptr<Engine> engine = exp::make_engine(config);
  (void)engine->run();
  const std::size_t in_use = heap_in_use() - before;
  const EngineStats& s = engine->stats();
  ASSERT_GT(s.leaves, 0u) << "the run must exercise churn";
  for (const std::uint64_t plane : {s.peer_state_bytes, s.pool_bytes, s.wheel_bytes,
                                    s.closure_slab_bytes, s.availability_bytes,
                                    s.transfer_bytes, s.overlay_bytes, s.arena_bytes}) {
    EXPECT_GT(plane, 0u);
  }
  const double ledger = static_cast<double>(s.ledger_bytes());
  EXPECT_NEAR(ledger, static_cast<double>(in_use), 0.10 * static_cast<double>(in_use))
      << "peer " << s.peer_state_bytes << " wheel " << s.wheel_bytes << " slab "
      << s.closure_slab_bytes << " availability " << s.availability_bytes << " transfer "
      << s.transfer_bytes << " overlay " << s.overlay_bytes << " arena " << s.arena_bytes;
#endif
}

}  // namespace
}  // namespace gs::stream
