/**
 * @file
 * Storage-tier tests: the ta-segment v1 format and the process-wide
 * BufferManager. The contracts pinned here are the ones serving
 * correctness rests on:
 *
 *  - Round trip is bit-exact: writeSegmentFile -> SegmentFile::open
 *    reproduces every catalog field and every packed plane byte, and
 *    the writer is deterministic (same inputs, byte-identical file).
 *  - Corruption detection is total: flipping ANY single byte of a
 *    segment is caught — metadata bytes at open time, data-page bytes
 *    (including page padding) at pin time — and rejection is
 *    wholesale. Truncation at any boundary rejects at open.
 *  - A pinned WeightView serves the engine bytes identical to fresh
 *    synthesis (runShapeView == runShape), including through the
 *    scheduler's batched window path.
 *  - Eviction under a small residency bound is correct and
 *    thread-safe: concurrent pin churn past the bound re-verifies
 *    evicted pages and never yields wrong bytes (run under TSan).
 */

#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <gtest/gtest.h>
#include <thread>

#include "core/accelerator.h"
#include "quant/bitslice.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "storage/buffer_manager.h"
#include "storage/segment_format.h"
#include "workloads/generators.h"

namespace ta {
namespace {

/** A four-plane test model (seeds 9..12), each plane one data page:
 *  reprRows 64, wbits 4 -> 256 sliced rows x 8 bytes = 2048 bytes. */
std::vector<SegmentModelInput>
tinyModel()
{
    SegmentModelInput m;
    m.name = "m1";
    m.baseSeed = 9;
    m.wbits = 4;
    for (uint64_t i = 0; i < 4; ++i) {
        SegmentEntryInput e;
        e.layer = "l" + std::to_string(i);
        e.n = 64;
        e.k = 64;
        e.m = 32;
        e.seed = 9 + i;
        e.wbits = 4;
        e.reprRows = 64;
        e.reprCols = 64;
        e.packed = packSlicedBits(realLikeSlicedWeights(64, 64, 4, 9 + i));
        m.entries.push_back(std::move(e));
    }
    return {m};
}

std::string
writeTinySegment(const std::string &dirName)
{
    const std::string dir = ::testing::TempDir() + dirName;
    ::mkdir(dir.c_str(), 0755);
    const std::string path = dir + "/m1.taseg";
    std::string err;
    EXPECT_TRUE(writeSegmentFile(path, tinyModel(), &err)) << err;
    return path;
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::vector<uint8_t> bytes;
    if (f != nullptr) {
        std::fseek(f, 0, SEEK_END);
        bytes.resize(static_cast<size_t>(std::ftell(f)));
        std::fseek(f, 0, SEEK_SET);
        EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
    }
    return bytes;
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    // An empty vector's data() may be null, which fwrite must not see.
    if (!bytes.empty()) {
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
    }
    std::fclose(f);
}

// ---- format round trip ----------------------------------------------------

TEST(SegmentFormat, RoundTripIsBitExact)
{
    const std::string path = writeTinySegment("seg_roundtrip");
    const std::vector<SegmentModelInput> in = tinyModel();

    SegmentFile seg;
    std::string err;
    ASSERT_TRUE(seg.open(path, &err)) << err;
    ASSERT_EQ(seg.models().size(), 1u);
    const CatalogModel &m = seg.models()[0];
    EXPECT_EQ(m.name, "m1");
    EXPECT_EQ(m.baseSeed, 9u);
    EXPECT_EQ(m.wbits, 4);
    ASSERT_EQ(m.entries.size(), in[0].entries.size());
    for (size_t i = 0; i < m.entries.size(); ++i) {
        const CatalogEntry &e = m.entries[i];
        const SegmentEntryInput &src = in[0].entries[i];
        EXPECT_EQ(e.layer, src.layer);
        EXPECT_EQ(e.n, src.n);
        EXPECT_EQ(e.k, src.k);
        EXPECT_EQ(e.m, src.m);
        EXPECT_EQ(e.seed, src.seed);
        EXPECT_EQ(e.wbits, src.wbits);
        EXPECT_EQ(e.reprRows, src.reprRows);
        EXPECT_EQ(e.reprCols, src.reprCols);
        EXPECT_EQ(e.rows, src.reprRows * 4);
        EXPECT_EQ(e.rowStride, (src.reprCols + 7) / 8);
        ASSERT_EQ(e.dataBytes, src.packed.size());
        // The mapped plane is byte-identical to what was packed.
        EXPECT_EQ(std::memcmp(seg.pageData(e.firstPage),
                              src.packed.data(), src.packed.size()),
                  0);
    }
    // Per-page checksums cover the whole page, padding included.
    for (uint64_t p = seg.dataPageStart();
         p < seg.dataPageStart() + seg.dataPageCount(); ++p)
        EXPECT_EQ(seg.pageFnv(p),
                  fnv64(seg.pageData(p), kSegmentPageSize));
}

TEST(SegmentFormat, WriterIsDeterministic)
{
    const std::string a = writeTinySegment("seg_det_a");
    const std::string b = writeTinySegment("seg_det_b");
    EXPECT_EQ(readFile(a), readFile(b));
}

// ---- total corruption detection -------------------------------------------

TEST(SegmentFormat, EveryByteFlipIsDetected)
{
    const std::string path = writeTinySegment("seg_flip");
    const std::vector<uint8_t> pristine = readFile(path);
    ASSERT_EQ(pristine.size() % kSegmentPageSize, 0u);

    uint64_t data_start = 0, data_count = 0;
    {
        SegmentFile seg;
        std::string err;
        ASSERT_TRUE(seg.open(path, &err)) << err;
        data_start = seg.dataPageStart();
        data_count = seg.dataPageCount();
    }
    const size_t data_lo = data_start * kSegmentPageSize;
    const size_t data_hi = data_lo + data_count * kSegmentPageSize;

    std::vector<uint8_t> bytes = pristine;
    for (size_t off = 0; off < bytes.size(); ++off) {
        bytes[off] ^= 0x01;
        writeFile(path, bytes);
        SegmentFile seg;
        std::string err;
        const bool opened = seg.open(path, &err);
        if (off < data_lo || off >= data_hi) {
            // Metadata: open-time rejection, wholesale.
            EXPECT_FALSE(opened) << "metadata byte " << off;
        } else {
            // Data region (padding included): opens, but pinning the
            // entry that owns the page must fail its checksum.
            ASSERT_TRUE(opened) << "data byte " << off << ": " << err;
            BufferManager mgr;
            ASSERT_TRUE(mgr.openSegment(path, &err)) << err;
            const uint64_t page = off / kSegmentPageSize;
            bool covered = false;
            for (const CatalogModel *m : mgr.models())
                for (const CatalogEntry &e : m->entries)
                    if (page >= e.firstPage &&
                        page < e.firstPage + e.pageCount) {
                        BufferManager::Pin pin = mgr.pin(e, &err);
                        EXPECT_FALSE(pin.ok())
                            << "data byte " << off;
                        covered = true;
                    }
            EXPECT_TRUE(covered) << "data byte " << off
                                 << " owned by no entry";
        }
        bytes[off] = pristine[off];
    }
    writeFile(path, pristine);
}

TEST(SegmentFormat, TruncationRejectedAtOpen)
{
    const std::string path = writeTinySegment("seg_trunc");
    const std::vector<uint8_t> pristine = readFile(path);
    const size_t cuts[] = {
        0,                              // empty file
        1,                              // sub-header
        kSegmentPageSize - 1,           // partial header page
        kSegmentPageSize,               // header only
        pristine.size() - kSegmentPageSize, // trailer gone
        pristine.size() - 1,            // one byte short
    };
    for (const size_t cut : cuts) {
        std::vector<uint8_t> bytes(pristine.begin(),
                                   pristine.begin() +
                                       static_cast<ptrdiff_t>(cut));
        writeFile(path, bytes);
        SegmentFile seg;
        std::string err;
        EXPECT_FALSE(seg.open(path, &err)) << "cut at " << cut;
        EXPECT_FALSE(err.empty()) << "cut at " << cut;
    }
}

// ---- buffer manager -------------------------------------------------------

TEST(BufferManagerTest, CountersTrackHitsMissesAndEvictions)
{
    const std::string path = writeTinySegment("seg_counters");

    BufferManager::Config cfg;
    cfg.bufferPages = 2; // four one-page planes: churn is guaranteed
    cfg.shards = 1;      // one shard so the bound is exact
    BufferManager mgr(cfg);
    std::string err;
    ASSERT_TRUE(mgr.openSegment(path, &err)) << err;
    ASSERT_EQ(mgr.models().size(), 1u);
    const CatalogModel *m = mgr.models()[0];
    ASSERT_EQ(m->entries.size(), 4u);

    // First pass: every page verifies cold.
    for (const CatalogEntry &e : m->entries) {
        BufferManager::Pin pin = mgr.pin(e, &err);
        ASSERT_TRUE(pin.ok()) << err;
    }
    const BufferManager::Counters first = mgr.counters();
    EXPECT_EQ(first.hits, 0u);
    EXPECT_EQ(first.misses, 4u);
    EXPECT_GE(first.evictions, 2u); // only 2 of 4 pages may stay

    // Pinning an evicted page re-verifies it (a miss, not a hit).
    for (const CatalogEntry &e : m->entries) {
        BufferManager::Pin pin = mgr.pin(e, &err);
        ASSERT_TRUE(pin.ok()) << err;
    }
    const BufferManager::Counters second = mgr.counters();
    EXPECT_EQ(second.hits + second.misses, 8u);
    EXPECT_GT(second.misses, first.misses);
}

TEST(BufferManagerTest, EvictionChurnUnderThreadsServesCorrectBytes)
{
    const std::string path = writeTinySegment("seg_churn");
    const std::vector<SegmentModelInput> in = tinyModel();

    BufferManager::Config cfg;
    cfg.bufferPages = 1; // maximal churn: every pin can evict
    cfg.shards = 1;      // all pages contend for the single slot
    BufferManager mgr(cfg);
    std::string err;
    ASSERT_TRUE(mgr.openSegment(path, &err)) << err;
    const CatalogModel *m = mgr.models()[0];

    std::atomic<uint64_t> bad{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 64; ++i) {
                const size_t idx =
                    static_cast<size_t>(t + i) % m->entries.size();
                const CatalogEntry &e = m->entries[idx];
                std::string perr;
                BufferManager::Pin pin = mgr.pin(e, &perr);
                if (!pin.ok() ||
                    std::memcmp(pin.view().data,
                                in[0].entries[idx].packed.data(),
                                e.dataBytes) != 0)
                    ++bad;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(bad.load(), 0u);
    const BufferManager::Counters c = mgr.counters();
    EXPECT_EQ(c.hits + c.misses, 4u * 64u);
    EXPECT_GT(c.evictions, 0u);
}

// ---- view-vs-synthesis byte identity --------------------------------------

TEST(StorageServing, ViewRunsBitIdenticalToSynthesis)
{
    const std::string path = writeTinySegment("seg_view");
    BufferManager mgr;
    std::string err;
    ASSERT_TRUE(mgr.openSegment(path, &err)) << err;
    const CatalogEntry *e = mgr.findEntry("m1", 9, 4, 64, 64);
    ASSERT_NE(e, nullptr);
    BufferManager::Pin pin = mgr.pin(*e, &err);
    ASSERT_TRUE(pin.ok()) << err;

    const GemmShape shape{64, 64, 32};
    TransArrayAccelerator acc(TransArrayAccelerator::Config{});
    const LayerRun fresh = acc.runShape(shape, 4, 9);
    const LayerRun viewed = acc.runShapeView(shape, 4, pin.view());
    ServiceRequest req;
    req.id = 1;
    req.shape = shape;
    req.wbits = 4;
    req.seed = 9;
    EXPECT_EQ(serializeResponse(req, fresh),
              serializeResponse(req, viewed));
}

TEST(StorageServing, CatalogBatchedWindowIsByteIdenticalToSynthesis)
{
    const std::string path = writeTinySegment("seg_sched");
    const std::string dir =
        path.substr(0, path.find_last_of('/'));

    // Eight requests cycling the four planes; model-naming ones must
    // serve bytes identical to the plain synthesis run of the same
    // request, through a batching window.
    std::vector<ServiceRequest> trace;
    for (uint64_t i = 0; i < 8; ++i) {
        ServiceRequest req;
        req.id = i + 1;
        req.shape = {64, 64, 32};
        req.wbits = 4;
        req.seed = 9 + i % 4;
        req.samples = 16;
        req.model = "m1";
        trace.push_back(req);
    }

    ServiceConfig cfg;
    cfg.threads = 1;
    cfg.sessions = 2;
    cfg.window = 4;
    cfg.catalogDir = dir;
    ServiceScheduler sched(cfg);
    sched.start();
    std::vector<std::string> responses(trace.size());
    std::vector<std::promise<void>> done(trace.size());
    for (size_t i = 0; i < trace.size(); ++i)
        sched.submit(trace[i], [&, i](const std::string &line) {
            responses[i] = line;
            done[i].set_value();
        });
    for (std::promise<void> &p : done)
        p.get_future().wait();
    const ServiceStats stats = sched.stats();
    sched.stop();

    EXPECT_GT(stats.bufferHits + stats.bufferMisses, 0u);
    EXPECT_EQ(stats.catalogModels, 1u);
    for (size_t i = 0; i < trace.size(); ++i) {
        ServiceRequest plain = trace[i];
        plain.model.clear();
        TransArrayAccelerator oracle(
            engineConfig(engineKeyOf(plain), 1));
        EXPECT_EQ(responses[i],
                  serializeResponse(plain,
                                    oracle.runShape(plain.shape,
                                                    plain.wbits,
                                                    plain.seed)))
            << "request " << i;
    }
}

} // namespace
} // namespace ta
