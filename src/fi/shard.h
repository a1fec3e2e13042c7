#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "fi/campaign.h"

namespace ssresf::util {
class ByteWriter;
class ByteReader;
}  // namespace ssresf::util

namespace ssresf::fi {

struct GoldenBundle;
namespace detail {
struct CampaignPrep;
}  // namespace detail

/// Deterministic partition of a campaign into `count` self-contained shards,
/// keyed by global injection index: shard k owns every planned injection i
/// with i % count == k. Every shard recomputes the identical golden run,
/// clustering, and sampling plan from (model, config, database) — shards
/// exchange no state, so they can run in different processes or on different
/// hosts — and per-injection randomness is Rng::from_stream(seed, i), so the
/// merged records are byte-identical to the single-process run for any
/// shard count.
struct ShardSpec {
  int index = 0;  // 0-based shard id
  int count = 1;  // total shards

  [[nodiscard]] bool owns(std::uint64_t global_index) const {
    return count <= 1 ||
           global_index % static_cast<std::uint64_t>(count) ==
               static_cast<std::uint64_t>(index);
  }
};

/// One injection outcome tagged with its global plan index (its slot in the
/// merged record vector).
struct ShardRecord {
  std::uint64_t index = 0;
  InjectionRecord record;

  [[nodiscard]] bool operator==(const ShardRecord&) const = default;
};

/// Header of a shard file. The digest binds the file to the exact campaign
/// (model shape + record-affecting config fields), so a merge of mismatched
/// shard files fails loudly instead of producing a silently wrong result.
struct ShardFileMeta {
  std::uint64_t seed = 0;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  std::uint64_t total_injections = 0;  // plan size of the full campaign
  std::uint64_t config_digest = 0;
  std::uint64_t num_records = 0;
};

/// FNV-1a digest over the record-affecting parts of the campaign: engine
/// kind, seed, environment, clustering and sampling knobs, run length, and
/// the model's shape. Execution knobs (threads, checkpointing, early exit)
/// are excluded — they never change records.
[[nodiscard]] std::uint64_t campaign_config_digest(const soc::SocModel& model,
                                                   const CampaignConfig& config);

/// Outcome of one shard's run: its records plus the size of the full plan
/// (identical in every shard — it goes into the shard-file header so a merge
/// can verify coverage).
struct ShardRunResult {
  std::uint64_t total_injections = 0;
  std::vector<ShardRecord> records;  // ascending global-index order
};

/// Runs the injections owned by `spec` (golden run, clustering, and sampling
/// are recomputed identically in every shard). Honors config.threads within
/// this process. When `bundle` is non-null, the golden work (run length,
/// trace, checkpoint ladder) is installed from the shipped bundle instead of
/// re-simulated — see fi/golden_bundle.h — without changing a single record.
[[nodiscard]] ShardRunResult run_campaign_shard(
    const soc::SocModel& model, const CampaignConfig& config,
    const radiation::SoftErrorDatabase& database, ShardSpec spec,
    const GoldenBundle* bundle = nullptr);

/// Record-stream codec shared by the shard files and the socket transport's
/// record frames: ascending global indices delta/varint-coded, followed by
/// the record fields. `records` must be in ascending index order.
void encode_records(util::ByteWriter& out, std::span<const ShardRecord> records);

/// Decodes `count` records appended by encode_records. Throws
/// InvalidArgument on malformed or truncated input.
[[nodiscard]] std::vector<ShardRecord> decode_records(util::ByteReader& in,
                                                      std::uint64_t count);

/// Writes a shard file: "SSFS" magic, version, meta, then delta/varint-coded
/// records. `records` must be in ascending index order.
void write_shard_file(const std::string& path, const ShardFileMeta& meta,
                      std::span<const ShardRecord> records);

/// Streaming shard-file reader: the header is parsed eagerly, records decode
/// one at a time — a merge never materialises a whole shard in memory.
class ShardFileReader {
 public:
  explicit ShardFileReader(const std::string& path);

  [[nodiscard]] const ShardFileMeta& meta() const { return meta_; }

  /// Decodes the next record into `out`. Returns false after the last
  /// record. Throws InvalidArgument on a malformed or truncated file.
  bool next(ShardRecord& out);

 private:
  [[nodiscard]] std::uint8_t read_u8();
  [[nodiscard]] std::uint64_t read_varint();

  std::ifstream in_;
  std::string path_;
  ShardFileMeta meta_;
  std::uint64_t read_count_ = 0;
  std::uint64_t prev_index_ = 0;
};

/// Merges shard files into the campaign result, streaming records straight
/// from disk into their plan slots (never more than one in-flight record per
/// file beyond the result itself). Validates that every file matches this
/// campaign's digest and that the files cover every injection exactly once.
/// The result is byte-identical to run_campaign over the same
/// (model, config, database) — records, cluster stats, and SER alike.
[[nodiscard]] CampaignResult merge_shard_files(
    const soc::SocModel& model, const CampaignConfig& config,
    const radiation::SoftErrorDatabase& database,
    const std::vector<std::string>& paths);

}  // namespace ssresf::fi
