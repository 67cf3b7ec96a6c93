// snapshot_test.cpp — the rendered-dataset snapshot cache: bitwise
// round-trip through write_snapshot/SnapshotDataset, header validation
// against corruption and truncation (malformed counts must throw before
// any speculative allocation), the zero-allocation replay pin, and the
// stream-budget regression for the SNDS dataset reader that shares the
// same hardening.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/snapshot.h"
#include "nn/dataset.h"
#include "sim/dataset_builder.h"
#include "sim/dataset_io.h"
#include "tensor/tensor.h"
#include "alloc_counter.h"

namespace sne {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

// Deterministic synthetic dataset with recognizable per-sample content.
nn::LazyDataset make_source(std::int64_t n) {
  return nn::LazyDataset(n, [](std::int64_t i) {
    Tensor x({2, 3});
    for (std::int64_t k = 0; k < x.size(); ++k) {
      x[k] = static_cast<float>(i * 100 + k) * 0.25f;
    }
    return nn::Sample{std::move(x),
                      Tensor({1}, static_cast<float>(i % 2))};
  });
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Overwrites the little-endian u64 at byte offset `off`.
void poke_u64(std::string& bytes, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[off + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

TEST(Snapshot, RoundTripIsBitwiseIdentical) {
  const std::string path = temp_path("roundtrip.snap");
  const nn::LazyDataset source = make_source(11);
  data::write_snapshot(path, source, 4);  // partial final batch on purpose

  const data::SnapshotInfo info = data::read_snapshot_info(path);
  EXPECT_EQ(info.version, 1u);
  EXPECT_EQ(info.count, 11);
  EXPECT_EQ(info.x_shape, (Shape{2, 3}));
  EXPECT_EQ(info.y_shape, (Shape{1}));

  const data::SnapshotDataset snap(path);
  ASSERT_EQ(snap.size(), source.size());
  for (std::int64_t i = 0; i < snap.size(); ++i) {
    const nn::Sample want = source.get(i);
    const nn::Sample got = snap.get(i);
    EXPECT_TRUE(same_bytes(want.x, got.x)) << "sample " << i;
    EXPECT_TRUE(same_bytes(want.y, got.y)) << "sample " << i;
  }

  // Batches over a shuffled gather order match the live render too.
  const std::vector<std::int64_t> order = {7, 2, 9, 0, 10, 3, 1};
  const nn::Sample live = source.get_batch(order, 1, 5);
  const nn::Sample replay = snap.get_batch(order, 1, 5);
  EXPECT_TRUE(same_bytes(live.x, replay.x));
  EXPECT_TRUE(same_bytes(live.y, replay.y));
}

TEST(Snapshot, ReplayBatchIsAllocationFreeAfterWarmup) {
  const std::string path = temp_path("zeroalloc.snap");
  data::write_snapshot(path, make_source(16), 8);
  const data::SnapshotDataset snap(path);

  std::vector<std::int64_t> order(16);
  std::iota(order.begin(), order.end(), std::int64_t{0});
  nn::Sample batch;
  snap.get_batch_into(order, 0, 8, batch);  // warmup sizes the buffers

  test::arm_alloc_counter();
  snap.get_batch_into(order, 8, 8, batch);
  snap.get_batch_into(order, 0, 8, batch);
  EXPECT_EQ(test::disarm_alloc_counter(), 0)
      << "snapshot replay must be pure pointer arithmetic + memcpy";
}

TEST(Snapshot, RejectsCorruptedMagicVersionAndDtype) {
  const std::string path = temp_path("corrupt.snap");
  data::write_snapshot(path, make_source(4), 4);
  const std::string good = slurp(path);

  std::string bad = good;
  bad[0] = 'X';
  spit(path, bad);
  EXPECT_THROW(data::read_snapshot_info(path), std::runtime_error);
  EXPECT_THROW(data::SnapshotDataset{path}, std::runtime_error);

  bad = good;
  poke_u64(bad, 8, 999);  // version field
  spit(path, bad);
  EXPECT_THROW(data::read_snapshot_info(path), std::runtime_error);

  bad = good;
  poke_u64(bad, 16, 2);  // dtype field
  spit(path, bad);
  EXPECT_THROW(data::read_snapshot_info(path), std::runtime_error);
}

TEST(Snapshot, TruncatedFileAndLyingCountAreRejectedBeforeAllocation) {
  const std::string path = temp_path("trunc.snap");
  data::write_snapshot(path, make_source(6), 6);
  const std::string good = slurp(path);

  // Chop the payload mid-sample: the header budget check must fail.
  spit(path, good.substr(0, good.size() - 13));
  EXPECT_THROW(data::SnapshotDataset{path}, std::runtime_error);

  // Header-only file (offset table and payload missing entirely).
  spit(path, good.substr(0, 64));
  EXPECT_THROW(data::read_snapshot_info(path), std::runtime_error);

  // A count far beyond the actual payload must be caught by the
  // stream-budget check, not by attempting a giant allocation. The
  // count u64 sits after magic(8) + version(8) + dtype(8) +
  // x(rank 8 + 2 extents · 8) + y(rank 8 + 1 extent · 8).
  std::string lying = good;
  poke_u64(lying, 8 + 8 + 8 + (8 + 2 * 8) + (8 + 8), 1'000'000);
  spit(path, lying);
  EXPECT_THROW(data::read_snapshot_info(path), std::runtime_error);

  // An offset pointing past the payload is rejected at load.
  std::string bad_offset = good;
  poke_u64(bad_offset, 8 + 8 + 8 + (8 + 2 * 8) + (8 + 8) + 8, 1 << 20);
  spit(path, bad_offset);
  EXPECT_THROW(data::SnapshotDataset{path}, std::runtime_error);
}

// Regression: count · (8 + record_bytes) wrapping around u64. The
// per-shape numel cap (2^40) and the count cap (1e8 < 2^27) each hold
// individually, yet their product reaches ~2^70 — so a crafted header
// can make the multiplication wrap to exactly 0, sail through the
// stream-budget check, and (via SnapshotDataset) turn the offset upper
// bound into an underflowed huge value that admits out-of-range mmap
// reads. Before the guard, this 64-byte file "validated" cleanly.
TEST(Snapshot, HeaderSizeOverflowIsRejected) {
  const std::string path = temp_path("overflow.snap");

  // x: rank 1, extent 2^39; y: rank 1, extent 2^39 - 2. Both pass the
  // per-shape cap; record_bytes = (2^40 - 2) · 4 = 2^42 - 8, so one
  // offset entry + record is exactly 2^42 bytes. count = 2^22 keeps
  // below kMaxCount while count · 2^42 = 2^64 ≡ 0 (mod 2^64).
  std::string header(64, '\0');
  std::memcpy(header.data(), "SNESNAP\0", 8);
  poke_u64(header, 8, 1);                          // version
  poke_u64(header, 16, 1);                         // dtype f32
  poke_u64(header, 24, 1);                         // x rank
  poke_u64(header, 32, 1ULL << 39);                // x extent
  poke_u64(header, 40, 1);                         // y rank
  poke_u64(header, 48, (1ULL << 39) - 2);          // y extent
  poke_u64(header, 56, 1ULL << 22);                // count
  spit(path, header);

  EXPECT_THROW(data::read_snapshot_info(path), std::runtime_error);
  EXPECT_THROW(data::SnapshotDataset{path}, std::runtime_error);
}

TEST(Snapshot, EmptyDatasetIsRejected) {
  const nn::LazyDataset empty(0, [](std::int64_t) {
    return nn::Sample{Tensor({1}), Tensor({1})};
  });
  EXPECT_THROW(data::write_snapshot(temp_path("none.snap"), empty),
               std::invalid_argument);
}

// Regression for the SNDS reader sharing the stream-budget hardening: a
// header whose sample count promises far more data than the file holds
// must throw instead of reserving gigabytes.
TEST(DatasetIoHardening, TruncatedSndsIsRejectedBeforeAllocation) {
  const std::string path = temp_path("trunc.snds");
  sim::SnDataset::Config cfg;
  cfg.num_samples = 4;
  cfg.catalog.count = 30;
  sim::save_dataset(path, sim::SnDataset::build(cfg));
  const std::string good = slurp(path);

  // Sanity: the intact file loads.
  EXPECT_EQ(sim::load_dataset(path).size(), 4);

  // Truncated mid-spec.
  spit(path, good.substr(0, good.size() - 21));
  EXPECT_THROW(sim::load_dataset(path), std::runtime_error);

  // Lying sample count: the SNDS layout is magic(4) + version(8) +
  // config, with the count u64 right before the first spec. Patch it to
  // an absurd value and keep the file size unchanged.
  // Find the count field by reproducing the writer's layout: it is at
  // (file) offset 4 + 8 + 27 * 8 = 228 (27 config fields, 8 bytes each).
  std::string lying = good;
  poke_u64(lying, 4 + 8 + 27 * 8, 9'000'000);
  spit(path, lying);
  EXPECT_THROW(sim::load_dataset(path), std::runtime_error);
}

}  // namespace
}  // namespace sne
