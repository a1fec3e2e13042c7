#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace ssresf::util {

/// Crash-safe whole-file publication: the bytes land at `path` atomically,
/// or not at all. The write goes to `path + ".tmp"`, is flushed to stable
/// storage (fsync), and only then renamed over the final path — POSIX
/// rename() replaces the destination atomically, so a reader (or a process
/// killed at ANY instant, power loss included) observes either the complete
/// old file or the complete new file at `path`, never a torn mixture. The
/// directory is fsynced after the rename so the publication itself survives
/// power loss too.
///
/// Every on-disk artifact the pipeline persists (.ssfs shards, .ssmd/.ssds
/// model/dataset bundles, the .ssjl journal header)
/// goes through this helper: the strict readers may reject a *stale* file
/// after a crash, but never a torn one.
///
/// `crash_before_rename` is the deterministic test seam for the kill window:
/// it performs the full write + fsync of the tmp file and then returns
/// WITHOUT renaming — exactly the state a process SIGKILLed between flush
/// and publish leaves behind (tmp debris beside an intact old file). Tests
/// use it to prove the old artifact still reads back strictly.
///
/// Throws Error naming the path and the errno string on any failure.
void atomic_write_file(const std::string& path,
                       std::span<const std::uint8_t> bytes,
                       bool crash_before_rename = false);

}  // namespace ssresf::util
