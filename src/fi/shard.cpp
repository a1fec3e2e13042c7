#include "fi/shard.h"

#include <algorithm>
#include <bit>
#include <string_view>

#include "fi/campaign_exec.h"
#include "fi/golden_bundle.h"
#include "fi/record_store.h"
#include "util/atomic_file.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/timer.h"

namespace ssresf::fi {

namespace {

constexpr char kMagic[4] = {'S', 'S', 'F', 'S'};
constexpr std::uint8_t kVersion = 1;

/// Streaming field helpers over the shared util::Fnv1a hasher.
struct Digest {
  util::Fnv1a fnv;

  void byte(std::uint8_t b) { fnv.byte(b); }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

}  // namespace

void encode_records(util::ByteWriter& out,
                    std::span<const ShardRecord> records) {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ShardRecord& r = records[i];
    if (i > 0 && r.index <= prev) {
      throw InvalidArgument(
          "encode_records: records must be in ascending index order");
    }
    out.varint(i == 0 ? r.index : r.index - prev - 1);
    const radiation::FaultEvent& e = r.record.event;
    out.u8(static_cast<std::uint8_t>(e.target.kind));
    out.varint(e.target.cell.index());
    out.varint(e.target.word);
    out.varint(e.target.bit);
    out.varint(e.time_ps);
    out.varint(e.set_width_ps);
    out.varint(static_cast<std::uint64_t>(r.record.cluster));
    out.u8(static_cast<std::uint8_t>(r.record.module_class));
    out.u8(r.record.soft_error ? 1 : 0);
    out.varint(r.record.first_mismatch_cycle);
    prev = r.index;
  }
}

std::vector<ShardRecord> decode_records(util::ByteReader& in,
                                        std::uint64_t count) {
  // An encoded record is at least 11 bytes, so a count the stream cannot
  // possibly hold is rejected before the reserve — a corrupt (or hostile)
  // count must never drive a multi-GiB allocation.
  if (count > in.remaining() / 11) {
    throw InvalidArgument("record stream: truncated input");
  }
  std::vector<ShardRecord> records;
  records.reserve(static_cast<std::size_t>(count));
  std::uint64_t prev = 0;
  try {
    for (std::uint64_t i = 0; i < count; ++i) {
      ShardRecord r;
      const std::uint64_t delta = in.varint();
      r.index = i == 0 ? delta : prev + delta + 1;
      const std::uint8_t kind = in.u8();
      if (kind > static_cast<std::uint8_t>(radiation::FaultKind::kMemBit)) {
        throw InvalidArgument("record stream: bad fault kind");
      }
      radiation::FaultEvent& e = r.record.event;
      e.target.kind = static_cast<radiation::FaultKind>(kind);
      e.target.cell = netlist::CellId{static_cast<std::uint32_t>(in.varint())};
      e.target.word = static_cast<std::uint32_t>(in.varint());
      e.target.bit = static_cast<std::uint32_t>(in.varint());
      e.time_ps = in.varint();
      e.set_width_ps = static_cast<std::uint32_t>(in.varint());
      r.record.cluster = static_cast<int>(in.varint());
      const std::uint8_t module_class = in.u8();
      if (module_class >= 5) {
        throw InvalidArgument("record stream: bad module class");
      }
      r.record.module_class = static_cast<netlist::ModuleClass>(module_class);
      r.record.soft_error = in.u8() != 0;
      r.record.first_mismatch_cycle = static_cast<std::size_t>(in.varint());
      prev = r.index;
      records.push_back(r);
    }
  } catch (const InvalidArgument&) {
    throw;
  } catch (const Error& e) {
    throw InvalidArgument(std::string("record stream: ") + e.what());
  }
  return records;
}

std::uint64_t campaign_config_digest(const soc::SocModel& model,
                                     const CampaignConfig& config) {
  Digest d;
  d.byte(static_cast<std::uint8_t>(config.engine));
  d.u64(config.seed);
  d.f64(config.environment.flux);
  d.f64(config.environment.let);
  d.u64(static_cast<std::uint64_t>(config.clustering.num_clusters));
  d.u64(static_cast<std::uint64_t>(config.clustering.layer_depth));
  d.u64(static_cast<std::uint64_t>(config.clustering.max_iterations));
  d.byte(config.clustering.expand_memory_weight ? 1 : 0);
  d.f64(config.sampling.fraction);
  d.u64(static_cast<std::uint64_t>(config.sampling.min_per_cluster));
  d.u64(static_cast<std::uint64_t>(config.sampling.max_per_cluster));
  d.byte(static_cast<std::uint8_t>(config.sampling.weighting));
  d.u64(static_cast<std::uint64_t>(config.sampling.memory_macro_draws));
  d.u64(static_cast<std::uint64_t>(config.run_cycles));
  d.u64(static_cast<std::uint64_t>(config.max_cycles));
  d.str(model.config.name);
  d.u64(model.netlist.num_cells());
  d.u64(model.netlist.num_nets());
  // Memory shapes and initial contents: the instruction memories carry the
  // program, so two SoCs that differ only in workload digest differently.
  d.u64(model.netlist.num_memories());
  for (std::size_t m = 0; m < model.netlist.num_memories(); ++m) {
    const netlist::MemoryInfo& mi =
        model.netlist.memory(static_cast<std::int32_t>(m));
    d.u64(mi.words);
    d.byte(mi.width);
    d.u64(mi.init.size());
    for (const std::uint64_t word : mi.init) d.u64(word);
  }
  return d.fnv.h;
}

ShardRunResult run_campaign_shard(const soc::SocModel& model,
                                  const CampaignConfig& config,
                                  const radiation::SoftErrorDatabase& db,
                                  ShardSpec spec, const GoldenBundle* bundle) {
  if (spec.count < 1 || spec.index < 0 || spec.index >= spec.count) {
    throw InvalidArgument("run_campaign_shard: shard " +
                          std::to_string(spec.index) + "/" +
                          std::to_string(spec.count) + " is out of range");
  }
  detail::CampaignPrep prep =
      bundle != nullptr
          ? prepare_campaign_with_bundle(model, config, db, *bundle)
          : detail::prepare_campaign(model, config, db, /*for_execution=*/true);
  std::vector<std::size_t> owned;
  owned.reserve(prep.plan.size() / static_cast<std::size_t>(spec.count) + 1);
  for (std::size_t i = static_cast<std::size_t>(spec.index);
       i < prep.plan.size(); i += static_cast<std::size_t>(spec.count)) {
    owned.push_back(i);
  }
  std::vector<InjectionRecord> records(prep.plan.size());
  detail::execute_injections(model, config, prep, owned, records);

  ShardRunResult out;
  out.total_injections = prep.plan.size();
  out.records.reserve(owned.size());
  for (const std::size_t i : owned) out.records.push_back({i, records[i]});
  return out;
}

std::uint64_t run_campaign_shard(const soc::SocModel& model,
                                 const CampaignConfig& config,
                                 const radiation::SoftErrorDatabase& db,
                                 ShardSpec spec, RecordSink& sink,
                                 const GoldenBundle* bundle) {
  if (spec.count < 1 || spec.index < 0 || spec.index >= spec.count) {
    throw InvalidArgument("run_campaign_shard: shard " +
                          std::to_string(spec.index) + "/" +
                          std::to_string(spec.count) + " is out of range");
  }
  detail::CampaignPrep prep =
      bundle != nullptr
          ? prepare_campaign_with_bundle(model, config, db, *bundle)
          : detail::prepare_campaign(model, config, db, /*for_execution=*/true);
  std::vector<std::size_t> owned;
  owned.reserve(prep.plan.size() / static_cast<std::size_t>(spec.count) + 1);
  for (std::size_t i = static_cast<std::size_t>(spec.index);
       i < prep.plan.size(); i += static_cast<std::size_t>(spec.count)) {
    owned.push_back(i);
  }
  std::vector<InjectionRecord> records(prep.plan.size());
  detail::execute_injections(model, config, prep, owned, records);

  ShardFileMeta meta;
  meta.seed = config.seed;
  meta.shard_index = static_cast<std::uint32_t>(spec.index);
  meta.shard_count = static_cast<std::uint32_t>(spec.count);
  meta.total_injections = prep.plan.size();
  meta.config_digest = campaign_config_digest(model, config);
  meta.num_records = owned.size();
  sink.begin(meta);

  RecordBatch batch;
  for (std::size_t pos = 0; pos < owned.size();) {
    const std::size_t n =
        std::min(VectorSource::kDefaultBatchRows, owned.size() - pos);
    batch.clear();
    batch.reserve(n);
    for (std::size_t j = 0; j < n; ++j, ++pos) {
      batch.push_back(owned[pos], records[owned[pos]]);
    }
    sink.append(batch);
  }
  sink.flush();
  return prep.plan.size();
}

void write_shard_file(const std::string& path, const ShardFileMeta& meta,
                      std::span<const ShardRecord> records) {
  if (meta.num_records != records.size()) {
    throw InvalidArgument("write_shard_file: num_records does not match");
  }
  util::ByteWriter out;
  out.bytes(kMagic, sizeof(kMagic));
  out.u8(kVersion);
  out.varint(meta.seed);
  out.varint(meta.shard_index);
  out.varint(meta.shard_count);
  out.varint(meta.total_injections);
  out.fixed64(meta.config_digest);
  out.varint(meta.num_records);
  encode_records(out, records);

  // Crash-safe: a worker killed mid-write must never leave a torn .ssfs
  // where the merge step expects a complete shard.
  util::atomic_write_file(path, out.data());
}

ShardFileReader::ShardFileReader(const std::string& path)
    : in_(path, std::ios::binary), path_(path) {
  if (!in_) throw Error("shard file: cannot open '" + path + "'");
  char magic[4];
  in_.read(magic, sizeof(magic));
  if (!in_ || std::string_view(magic, 4) != std::string_view(kMagic, 4)) {
    throw InvalidArgument("shard file '" + path + "': bad magic");
  }
  const std::uint8_t version = read_u8();
  if (version != kVersion) {
    throw InvalidArgument("shard file '" + path + "': unsupported version " +
                          std::to_string(version));
  }
  meta_.seed = read_varint();
  meta_.shard_index = static_cast<std::uint32_t>(read_varint());
  meta_.shard_count = static_cast<std::uint32_t>(read_varint());
  meta_.total_injections = read_varint();
  std::uint8_t digest[8];
  in_.read(reinterpret_cast<char*>(digest), sizeof(digest));
  if (!in_) throw InvalidArgument("shard file '" + path + "': truncated header");
  meta_.config_digest = 0;
  for (int i = 0; i < 8; ++i) {
    meta_.config_digest |= static_cast<std::uint64_t>(digest[i]) << (8 * i);
  }
  meta_.num_records = read_varint();
}

std::uint8_t ShardFileReader::read_u8() {
  const int c = in_.get();
  if (c == std::char_traits<char>::eof()) {
    throw InvalidArgument("shard file '" + path_ + "': truncated");
  }
  return static_cast<std::uint8_t>(c);
}

std::uint64_t ShardFileReader::read_varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const std::uint8_t b = read_u8();
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
  throw InvalidArgument("shard file '" + path_ + "': varint overflow");
}

bool ShardFileReader::next(ShardRecord& out) {
  if (read_count_ >= meta_.num_records) return false;
  const std::uint64_t delta = read_varint();
  out.index = read_count_ == 0 ? delta : prev_index_ + delta + 1;
  const std::uint8_t kind = read_u8();
  if (kind > static_cast<std::uint8_t>(radiation::FaultKind::kMemBit)) {
    throw InvalidArgument("shard file '" + path_ + "': bad fault kind");
  }
  radiation::FaultEvent& e = out.record.event;
  e.target.kind = static_cast<radiation::FaultKind>(kind);
  e.target.cell = netlist::CellId{static_cast<std::uint32_t>(read_varint())};
  e.target.word = static_cast<std::uint32_t>(read_varint());
  e.target.bit = static_cast<std::uint32_t>(read_varint());
  e.time_ps = read_varint();
  e.set_width_ps = static_cast<std::uint32_t>(read_varint());
  out.record.cluster = static_cast<int>(read_varint());
  const std::uint8_t module_class = read_u8();
  if (module_class >= 5) {
    throw InvalidArgument("shard file '" + path_ + "': bad module class");
  }
  out.record.module_class = static_cast<netlist::ModuleClass>(module_class);
  out.record.soft_error = read_u8() != 0;
  out.record.first_mismatch_cycle = static_cast<std::size_t>(read_varint());
  prev_index_ = out.index;
  ++read_count_;
  return true;
}

CampaignResult merge_shard_files(const soc::SocModel& model,
                                 const CampaignConfig& config,
                                 const radiation::SoftErrorDatabase& db,
                                 const std::vector<std::string>& paths) {
  // The merge re-derives the plan (golden run, clustering, sampling) but
  // never simulates an injection, so it skips the golden replay +
  // checkpoint ladder. Thin collecting wrapper over the streaming merge
  // core: the K-way merge in fi/record_store.cpp does every validation
  // (digest, plan cross-check, duplicates, coverage) and streams records in
  // ascending order into the plan-sized vector, which then finalizes.
  util::Timer timer;
  detail::CampaignPrep prep =
      detail::prepare_campaign(model, config, db, /*for_execution=*/false);
  VectorSink sink(prep.plan.size());
  detail::stream_merged_records(model, config, prep, paths, sink);
  CampaignResult result = detail::finalize_campaign(model, config, db,
                                                    std::move(prep),
                                                    sink.take_records());
  result.simulation_seconds = timer.seconds();
  return result;
}

}  // namespace ssresf::fi
