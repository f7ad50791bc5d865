#include "replay/format.h"

#include <array>

namespace ipds {
namespace replay {

namespace {

std::array<uint32_t, 256>
makeCrcTable()
{
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        t[i] = c;
    }
    return t;
}

const std::array<uint32_t, 256> kCrcTable = makeCrcTable();

} // namespace

uint32_t
crc32(const uint8_t *p, size_t n)
{
    uint32_t c = 0xffffffffu;
    for (size_t i = 0; i < n; ++i)
        c = kCrcTable[(c ^ p[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

void
packTimingConfig(const TimingConfig &cfg, uint32_t *out)
{
    size_t i = 0;
    auto put = [&](uint32_t v) { out[i++] = v; };
    auto cache = [&](const CacheConfig &c) {
        put(c.sizeBytes);
        put(c.ways);
        put(c.blockBytes);
        put(c.latency);
    };
    put(cfg.fetchQueue);
    put(cfg.decodeWidth);
    put(cfg.issueWidth);
    put(cfg.commitWidth);
    put(cfg.ruuSize);
    put(cfg.lsqSize);
    cache(cfg.l1i);
    cache(cfg.l1d);
    cache(cfg.l2);
    put(cfg.memFirstChunk);
    put(cfg.memInterChunk);
    put(cfg.tlbMissCycles);
    put(cfg.tlbEntries);
    put(cfg.pageBytes);
    put(cfg.bhtEntries);
    put(cfg.historyBits);
    put(cfg.btbEntries);
    put(cfg.mispredictPenalty);
    put(cfg.ipdsEnabled ? 1 : 0);
    put(cfg.bsvStackBits);
    put(cfg.bcvStackBits);
    put(cfg.batStackBits);
    put(cfg.tableLatency);
    put(cfg.batEntriesPerAccess);
    put(cfg.requestQueueSize);
    put(cfg.spillCyclesPer512);
    put(cfg.requestRingCapacity);
    put(cfg.maxFrameDepth);
    put(cfg.inputCallInsts);
    put(cfg.outputCallInsts);
    put(cfg.stringCallInsts);
    put(cfg.builtinInstCost);
    static_assert(kTimingConfigWords == 41,
                  "field list below must match kTimingConfigWords");
}

TimingConfig
unpackTimingConfig(const uint32_t *in)
{
    TimingConfig cfg;
    size_t i = 0;
    auto get = [&]() { return in[i++]; };
    auto cache = [&](CacheConfig &c) {
        c.sizeBytes = get();
        c.ways = get();
        c.blockBytes = get();
        c.latency = get();
    };
    cfg.fetchQueue = get();
    cfg.decodeWidth = get();
    cfg.issueWidth = get();
    cfg.commitWidth = get();
    cfg.ruuSize = get();
    cfg.lsqSize = get();
    cache(cfg.l1i);
    cache(cfg.l1d);
    cache(cfg.l2);
    cfg.memFirstChunk = get();
    cfg.memInterChunk = get();
    cfg.tlbMissCycles = get();
    cfg.tlbEntries = get();
    cfg.pageBytes = get();
    cfg.bhtEntries = get();
    cfg.historyBits = get();
    cfg.btbEntries = get();
    cfg.mispredictPenalty = get();
    cfg.ipdsEnabled = get() != 0;
    cfg.bsvStackBits = get();
    cfg.bcvStackBits = get();
    cfg.batStackBits = get();
    cfg.tableLatency = get();
    cfg.batEntriesPerAccess = get();
    cfg.requestQueueSize = get();
    cfg.spillCyclesPer512 = get();
    cfg.requestRingCapacity = get();
    cfg.maxFrameDepth = get();
    cfg.inputCallInsts = get();
    cfg.outputCallInsts = get();
    cfg.stringCallInsts = get();
    cfg.builtinInstCost = get();
    return cfg;
}

void
encodeHeader(const TraceMeta &meta, uint8_t *out)
{
    for (size_t i = 0; i < 8; ++i)
        out[i] = kTraceMagic[i];
    putU32(out + 8, meta.version);
    putU32(out + 12, meta.flags);
    putU64(out + 16, meta.moduleHash);
    putU32(out + 24, meta.sessions);
    putU32(out + 28, meta.shards);
    putU32(out + 32, meta.hasTiming ? kTimingConfigWords : 0);
    putU32(out + 36, crc32(out, 36));
    if (meta.hasTiming) {
        uint32_t words[kTimingConfigWords];
        packTimingConfig(meta.timing, words);
        for (uint32_t i = 0; i < kTimingConfigWords; ++i)
            putU32(out + kHeaderBytes + 4 * i, words[i]);
    }
}

void
encodeIndexEntry(const ChunkIndexEntry &e, uint8_t *out)
{
    putU64(out, e.fileOffset);
    putU32(out + 8, e.payloadLen);
    putU32(out + 12, e.events);
    putU32(out + 16, e.session);
    putU32(out + 20, e.flags);
    putU64(out + 24, e.firstSeq);
    putU64(out + 32, e.endSeq);
}

ChunkIndexEntry
decodeIndexEntry(const uint8_t *p)
{
    ChunkIndexEntry e;
    e.fileOffset = getU64(p);
    e.payloadLen = getU32(p + 8);
    e.events = getU32(p + 12);
    e.session = getU32(p + 16);
    e.flags = getU32(p + 20);
    e.firstSeq = getU64(p + 24);
    e.endSeq = getU64(p + 32);
    return e;
}

void
appendIndexFooter(std::vector<uint8_t> &out,
                  const ChunkIndexEntry *entries, size_t count,
                  uint64_t footerFileOff)
{
    const size_t payloadLen = count * kIndexEntryBytes;
    const size_t base = out.size();
    out.resize(base + kChunkHeaderBytes + payloadLen +
               kIndexTrailerBytes);
    uint8_t *p = out.data() + base;
    putU32(p, static_cast<uint32_t>(payloadLen));
    putU32(p + 4, static_cast<uint32_t>(count));
    putU32(p + 8, kIndexSession);
    uint8_t *payload = p + kChunkHeaderBytes;
    for (size_t i = 0; i < count; ++i)
        encodeIndexEntry(entries[i], payload + i * kIndexEntryBytes);
    putU32(p + 12, crc32(payload, payloadLen));
    uint8_t *trailer = payload + payloadLen;
    for (size_t i = 0; i < 8; ++i)
        trailer[i] = kIndexTrailerMagic[i];
    putU64(trailer + 8, footerFileOff);
}

} // namespace replay
} // namespace ipds
