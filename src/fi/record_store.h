#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fi/shard.h"

/// Streaming record flow: the columnar `.ssfs` v2 store and the
/// RecordSink / RecordSource API every record producer and consumer in the
/// framework now speaks.
///
/// The v1 design funnelled every campaign through one resident
/// vector<InjectionRecord> — run_campaign returned it, merge_shard_files
/// rebuilt it, the socket coordinator buffered every worker's frames into
/// it — capping campaign volume at coordinator RAM. v2 inverts the flow:
///
///   producers (run_campaign, run_campaign_shard, merge, coordinator)
///       --- RecordBatch --->  RecordSink   (append / flush)
///   consumers (ShardFileReader, columnar reader, build_dataset, CSV)
///       <-- RecordBatch ----  RecordSource (next_batch)
///
/// and statistics come from fi::CampaignAggregator, a sink that folds each
/// batch into order-independent integer counters and reduces them through
/// the same stats kernel finalize_campaign uses — so the streaming numbers
/// are bit-identical to the vector path's, while coordinator peak memory is
/// bounded by one batch.
///
/// Ordering contract:
///   - RecordSink::append may be called in ANY batch order (the socket
///     coordinator appends in worker-arrival order). Batch index ranges
///     never overlap, and each batch is internally strictly ascending.
///   - RecordSource::next_batch yields batches in ascending global-index
///     order across the whole stream.
/// The ColumnarFileWriter is the bridge: it accepts sink order, and its
/// chunk index lets ColumnarFileSource replay the file in source order.
namespace ssresf::fi {

namespace detail {
struct CampaignPrep;
}  // namespace detail

/// Columnar view of a run of records: one vector per field ("struct of
/// arrays"), the Batch every sink and source exchanges. Row i across all
/// columns is one ShardRecord.
struct RecordBatch {
  std::vector<std::uint64_t> index;     // global plan index
  std::vector<std::uint8_t> kind;       // radiation::FaultKind
  std::vector<std::uint32_t> cell;
  std::vector<std::uint32_t> word;
  std::vector<std::uint32_t> bit;
  std::vector<std::uint64_t> time_ps;
  std::vector<std::uint32_t> set_width_ps;
  std::vector<std::uint32_t> cluster;
  std::vector<std::uint8_t> module_class;
  std::vector<std::uint8_t> soft_error;  // 0 / 1
  std::vector<std::uint64_t> first_mismatch_cycle;

  [[nodiscard]] std::size_t row_count() const { return index.size(); }
  [[nodiscard]] bool empty() const { return index.empty(); }
  void clear();
  void reserve(std::size_t rows);

  /// Appends one row. The caller keeps the batch's internal ascending-index
  /// invariant (push strictly increasing indices).
  void push_back(std::uint64_t global_index, const InjectionRecord& record);
  void push_back(const ShardRecord& record) {
    push_back(record.index, record.record);
  }

  /// Reassembles row i as a ShardRecord (validates kind / module_class
  /// ranges like the v1 decoder; throws InvalidArgument on a bad row).
  [[nodiscard]] ShardRecord row(std::size_t i) const;
};

/// Consumer end of the record flow. Implementations: VectorSink (collecting
/// wrapper behind the legacy vector APIs), ColumnarFileWriter (.ssfs v2),
/// CampaignAggregator (streaming statistics), TeeSink (fan-out),
/// core::DatasetAccumulator (feature extraction).
class RecordSink {
 public:
  virtual ~RecordSink() = default;

  /// Start of stream: the producer announces the campaign metadata (seed,
  /// shard K/N, plan size, config digest) once it is known — which is after
  /// campaign preparation, i.e. after the sink was constructed. Sinks that
  /// need sizing or a file header (VectorSink, ColumnarFileWriter) pick it
  /// up here; callers that already passed metadata at construction are left
  /// untouched. Called at most once, before any append. Default no-op.
  virtual void begin(const ShardFileMeta& meta) { (void)meta; }

  /// Receives one batch. Batches may arrive in any order; their index
  /// ranges never overlap and each batch is internally strictly ascending.
  virtual void append(const RecordBatch& batch) = 0;

  /// End of stream: publish/seal whatever the sink buffers. Default no-op.
  virtual void flush() {}
};

/// Producer end: yields the stream back in ascending global-index order.
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  [[nodiscard]] virtual const ShardFileMeta& meta() const = 0;

  /// Fills `out` with the next batch (clearing it first). Returns false at
  /// end of stream (out left empty). Successive batches are in ascending
  /// global-index order.
  virtual bool next_batch(RecordBatch& out) = 0;
};

/// Scatters batches into a plan-sized vector<InjectionRecord> — the shim
/// that keeps every vector-returning legacy API as a thin wrapper over its
/// sink-based overload. Rejects out-of-range and duplicate indices.
class VectorSink : public RecordSink {
 public:
  /// Deferred sizing: the plan size arrives via begin().
  VectorSink() = default;
  explicit VectorSink(std::uint64_t plan_size);

  void begin(const ShardFileMeta& meta) override;
  void append(const RecordBatch& batch) override;

  [[nodiscard]] std::uint64_t filled() const { return filled_; }
  [[nodiscard]] const std::vector<InjectionRecord>& records() const {
    return records_;
  }
  /// Moves the fully populated vector out; throws InternalError if any plan
  /// slot is still unfilled.
  [[nodiscard]] std::vector<InjectionRecord> take_records();

 private:
  std::vector<InjectionRecord> records_;
  std::vector<std::uint8_t> seen_;
  std::uint64_t filled_ = 0;
  bool sized_ = false;
};

/// Replays an in-memory record vector as a source (implicit global indices
/// 0..n-1) — how the legacy CampaignResult plugs into RecordSource
/// consumers such as core::build_dataset.
class VectorSource : public RecordSource {
 public:
  explicit VectorSource(std::span<const InjectionRecord> records,
                        std::size_t batch_rows = kDefaultBatchRows);

  [[nodiscard]] const ShardFileMeta& meta() const override { return meta_; }
  bool next_batch(RecordBatch& out) override;

  static constexpr std::size_t kDefaultBatchRows = 4096;

 private:
  std::span<const InjectionRecord> records_;
  std::size_t batch_rows_;
  std::size_t next_ = 0;
  ShardFileMeta meta_;
};

/// RecordSource view of a v1 shard file — ShardFileReader rebased onto the
/// batch API so v1 and v2 files are interchangeable behind
/// open_record_source().
class ShardFileSource : public RecordSource {
 public:
  explicit ShardFileSource(const std::string& path,
                           std::size_t batch_rows = VectorSource::kDefaultBatchRows);

  [[nodiscard]] const ShardFileMeta& meta() const override {
    return reader_.meta();
  }
  bool next_batch(RecordBatch& out) override;

 private:
  ShardFileReader reader_;
  std::size_t batch_rows_;
};

/// Duplicates the stream to several sinks (e.g. a ColumnarFileWriter plus a
/// CampaignAggregator in one pass). flush() flushes in registration order.
class TeeSink : public RecordSink {
 public:
  explicit TeeSink(std::vector<RecordSink*> sinks) : sinks_(std::move(sinks)) {}

  void begin(const ShardFileMeta& meta) override {
    for (RecordSink* s : sinks_) s->begin(meta);
  }
  void append(const RecordBatch& batch) override {
    for (RecordSink* s : sinks_) s->append(batch);
  }
  void flush() override {
    for (RecordSink* s : sinks_) s->flush();
  }

 private:
  std::vector<RecordSink*> sinks_;
};

/// Chunked columnar `.ssfs` v2 writer (byte layout: docs/FORMATS.md).
/// Batches coalesce into chunks of up to `chunk_rows` rows; a chunk is cut
/// early when an incoming batch does not continue the buffered index run,
/// so arrival-order appends from a socket coordinator still produce
/// non-overlapping chunks the reader can replay in ascending order. Chunks
/// stream to `path + ".tmp"` as they close (peak memory = one chunk); flush
/// writes the chunk-index footer, fsyncs, and atomically renames into
/// place — the crash-safety contract of util::atomic_write_file without
/// ever holding the whole file in memory.
class ColumnarFileWriter : public RecordSink {
 public:
  static constexpr std::size_t kDefaultChunkRows = 4096;

  ColumnarFileWriter(std::string path, ShardFileMeta meta,
                     std::size_t chunk_rows = kDefaultChunkRows);
  /// Deferred-header variant: the file opens and the header is written when
  /// the producer announces the metadata via begin() — how a CLI constructs
  /// the sink before the campaign plan (and thus the header's total) exists.
  explicit ColumnarFileWriter(std::string path,
                              std::size_t chunk_rows = kDefaultChunkRows);
  /// Unflushed writer: removes the temporary file (never publishes a torn
  /// store).
  ~ColumnarFileWriter() override;

  // Owns a FILE*: copying or moving would double-close and double-remove.
  ColumnarFileWriter(const ColumnarFileWriter&) = delete;
  ColumnarFileWriter& operator=(const ColumnarFileWriter&) = delete;

  void begin(const ShardFileMeta& meta) override;
  void append(const RecordBatch& batch) override;
  void flush() override;

  [[nodiscard]] std::uint64_t records_written() const { return written_; }
  /// High-water marks of the writer's own buffering — what the bounded-
  /// memory test asserts against.
  [[nodiscard]] std::size_t peak_buffered_rows() const {
    return peak_buffered_rows_;
  }

 private:
  struct ChunkIndexEntry {
    std::uint64_t offset = 0;       // file offset of the chunk marker byte
    std::uint64_t row_count = 0;
    std::uint64_t first_index = 0;
    std::uint64_t last_index = 0;   // overlap check + reader-side pushdown
  };

  void open_file();  // opens the temp file and writes the header
  void cut_chunk();
  void write_raw(const void* data, std::size_t size);

  std::string path_;
  std::string tmp_path_;
  ShardFileMeta meta_;
  std::size_t chunk_rows_;
  std::FILE* file_ = nullptr;
  std::uint64_t offset_ = 0;  // bytes written to the temp file so far
  RecordBatch chunk_;
  std::vector<ChunkIndexEntry> chunks_;
  std::uint64_t written_ = 0;
  std::size_t peak_buffered_rows_ = 0;
  bool flushed_ = false;
};

/// `.ssfs` v2 reader: parses the footer from the end of the file, verifies
/// its digest, orders the chunk index by first record index, and streams
/// one chunk per next_batch() — verifying each chunk's checksum before
/// decoding. Corruption errors name the offending byte offset.
class ColumnarFileSource : public RecordSource {
 public:
  explicit ColumnarFileSource(const std::string& path);

  [[nodiscard]] const ShardFileMeta& meta() const override { return meta_; }
  bool next_batch(RecordBatch& out) override;

  [[nodiscard]] std::uint64_t total_records() const { return total_records_; }

  /// Predicate pushdown: restricts the stream to records with global index
  /// in [lo, hi). Chunks whose [first_index, last_index] span (from the
  /// footer chunk index) does not intersect the range are dropped from the
  /// replay plan without ever being read or decoded — a corrupt chunk
  /// outside the range is never even checksummed. Surviving chunks decode
  /// and verify as usual, then trim row-wise (chunk index runs may have
  /// gaps, so intersecting a chunk's span does not guarantee rows in
  /// range). Call before the first next_batch(); may be called once.
  void select_range(std::uint64_t lo, std::uint64_t hi);

  /// Pushdown observability — what the skipped-chunks-never-decoded test
  /// asserts against.
  [[nodiscard]] std::uint64_t chunks_decoded() const { return chunks_decoded_; }
  [[nodiscard]] std::uint64_t chunks_skipped() const { return chunks_skipped_; }

 private:
  struct ChunkIndexEntry {
    std::uint64_t offset = 0;
    std::uint64_t row_count = 0;
    std::uint64_t first_index = 0;
    std::uint64_t last_index = 0;
  };

  /// Reads, verifies, decodes, and range-trims chunks_[next_chunk_] into
  /// `out`. Returns false when the trim leaves no in-range rows.
  bool decode_chunk(RecordBatch& out);

  std::ifstream in_;
  std::string path_;
  ShardFileMeta meta_;
  std::vector<ChunkIndexEntry> chunks_;
  std::size_t next_chunk_ = 0;
  std::uint64_t total_records_ = 0;
  std::uint64_t prev_last_index_ = 0;  // cross-chunk ascending check
  std::uint64_t range_lo_ = 0;         // select_range window [lo, hi)
  std::uint64_t range_hi_ = UINT64_MAX;
  std::uint64_t chunks_decoded_ = 0;
  std::uint64_t chunks_skipped_ = 0;
};

/// Opens a record file of either version behind the one RecordSource API:
/// sniffs the version byte and returns a ShardFileSource (v1) or a
/// ColumnarFileSource (v2).
[[nodiscard]] std::unique_ptr<RecordSource> open_record_source(
    const std::string& path);

/// Streaming statistics sink: folds every batch into per-cluster /
/// per-class integer counters plus per-class detection-latency histograms
/// (the order-independent Welford-style accumulation net/health uses for
/// its moments), then finalize() reduces them through the same kernel as
/// detail::finalize_campaign. CampaignStats doubles are therefore
/// bit-identical to the CampaignResult a vector path computes — regardless
/// of batch arrival order, worker count, or transport.
class CampaignAggregator : public RecordSink {
 public:
  /// `prep` must outlive the aggregator (it borrows the clustering and
  /// cross-section tables; any for_execution=false prep works).
  CampaignAggregator(const soc::SocModel& model, const CampaignConfig& config,
                     const radiation::SoftErrorDatabase& database,
                     const detail::CampaignPrep& prep);
  ~CampaignAggregator() override;

  void append(const RecordBatch& batch) override;

  [[nodiscard]] CampaignStats finalize() const;

 private:
  const soc::SocModel& model_;
  const CampaignConfig& config_;
  const radiation::SoftErrorDatabase& db_;
  const detail::CampaignPrep& prep_;
  std::vector<std::size_t> cluster_samples_;
  std::vector<std::size_t> cluster_errors_;
  std::array<std::size_t, netlist::kModuleClassCount> class_samples_{};
  std::array<std::size_t, netlist::kModuleClassCount> class_errors_{};
  std::array<LatencyHistogram, netlist::kModuleClassCount> latency_{};
  std::uint64_t num_records_ = 0;
  std::uint64_t num_soft_errors_ = 0;
};

/// Streaming sink-based shard runner: the records owned by `spec` flow into
/// `sink` in ascending-index batches. Returns the full plan size. Identical
/// records to run_campaign_shard's vector overload.
std::uint64_t run_campaign_shard(const soc::SocModel& model,
                                 const CampaignConfig& config,
                                 const radiation::SoftErrorDatabase& database,
                                 ShardSpec spec, RecordSink& sink,
                                 const GoldenBundle* bundle = nullptr);

/// Streaming merge: K-way merges any mix of v1 and v2 record files into one
/// ascending-index stream through `sink`, validating digests, plan
/// cross-checks, duplicates, and coverage exactly like merge_shard_files —
/// with peak memory of one in-flight batch per input file. Statistics come
/// from a CampaignAggregator tee'd onto the stream.
[[nodiscard]] CampaignStats merge_record_files(
    const soc::SocModel& model, const CampaignConfig& config,
    const radiation::SoftErrorDatabase& database,
    const std::vector<std::string>& paths, RecordSink& sink);

namespace detail {

/// Shared merge core: validates and K-way merges `paths` into `sink`
/// (ascending global order), cross-checking every record against `prep`'s
/// plan. merge_shard_files and merge_record_files both run on
/// this. Returns the number of records streamed (== plan size on success).
std::uint64_t stream_merged_records(const soc::SocModel& model,
                                    const CampaignConfig& config,
                                    const CampaignPrep& prep,
                                    const std::vector<std::string>& paths,
                                    RecordSink& sink);

}  // namespace detail

/// Writes the canonical records CSV (same bytes as the vector overload in
/// campaign.h) from a source, one batch resident at a time.
void write_records_csv(const std::string& path, RecordSource& source);

/// Writes a v2 columnar record file from an in-memory record vector —
/// write_shard_file's v2 counterpart (records get implicit indices 0..n-1
/// unless `records` carries explicit ShardRecords).
void write_columnar_file(const std::string& path, const ShardFileMeta& meta,
                         std::span<const ShardRecord> records,
                         std::size_t chunk_rows =
                             ColumnarFileWriter::kDefaultChunkRows);

}  // namespace ssresf::fi
