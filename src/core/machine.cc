#include "core/machine.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "compress/lzrw1.h"
#include "util/assert.h"

namespace compcache {

namespace {

std::unique_ptr<BackingTimingModel> MakeTiming(const MachineConfig& config) {
  if (config.backing == BackingKind::kNetworkLink) {
    return std::make_unique<NetworkLinkModel>(config.network_params);
  }
  return std::make_unique<SeekDiskModel>(config.disk_params);
}

}  // namespace

Machine::Machine(MachineConfig config) : Machine(std::move(config), nullptr) {}

std::unique_ptr<Machine> Machine::Recover(Machine& crashed) {
  MachineConfig config = crashed.config();
  // Explicit crash-point ordinals are positional from machine start; carried
  // over, the recovered machine's own recovery writes would re-fire the same
  // ordinal and crash again. Rate-based power failures persist.
  config.fault_injection.power_fail_nth_sectors.clear();
  return std::unique_ptr<Machine>(new Machine(std::move(config), &crashed));
}

Machine::Machine(MachineConfig config, Machine* recover_from)
    : config_(std::move(config)),
      codec_(MakeCodec(config_.codec, config_.codec_hash_bits)),
      pool_(config_.user_memory_bytes / kPageSize) {
  CC_EXPECTS(config_.user_memory_bytes >= 32 * kPageSize);

  disk_ = std::make_unique<DiskDevice>(&clock_, MakeTiming(config_),
                                       config_.costs.io_setup_overhead);
  disk_->SetRetryPolicy(config_.retry);
  if (config_.fault_injection.enabled) {
    const FaultInjectionOptions& fi = config_.fault_injection;
    injector_ = std::make_unique<FaultInjector>(fi.seed);
    injector_->SetSchedule(FaultSite::kDiskRead,
                           {fi.disk_read_error_rate, fi.fail_nth_disk_reads});
    injector_->SetSchedule(FaultSite::kDiskWrite,
                           {fi.disk_write_error_rate, fi.fail_nth_disk_writes});
    injector_->SetSchedule(FaultSite::kSectorCorruption,
                           {fi.sector_corruption_rate, fi.corrupt_nth_sectors});
    injector_->SetSchedule(FaultSite::kCodecCorruption,
                           {fi.codec_corruption_rate, fi.corrupt_nth_codec_ops});
    injector_->SetSchedule(FaultSite::kPowerFail,
                           {fi.power_fail_rate, fi.power_fail_nth_sectors});
    disk_->SetFaultInjector(injector_.get());
  }
  fs_ = std::make_unique<FileSystem>(disk_.get(), config_.fs_options);
  if (recover_from != nullptr) {
    // Adopt the crashed machine's surviving disk image; file-system metadata
    // (names, sizes, block maps) is durable by fiat — see FileSystem::FsImage.
    CC_EXPECTS(recover_from->disk().power_failed());
    disk_->CopyContentsFrom(recover_from->disk());
    fs_->ImportImage(recover_from->fs().ExportImage());
  }
  buffer_cache_ = std::make_unique<BufferCache>(&clock_, &config_.costs, this, fs_.get());

  VmOptions vm_options;
  vm_options.insert_coresidents = config_.insert_coresidents;
  pager_ = std::make_unique<Pager>(&clock_, &config_.costs, this, vm_options);

  CC_EXPECTS(!config_.pipeline.enabled || config_.use_compression_cache);
  CC_EXPECTS(!config_.tiers.enabled || config_.use_compression_cache);
  if (config_.use_compression_cache) {
    std::unique_ptr<CompressedSwapBackend> inner;
    switch (config_.compressed_swap) {
      case CompressedSwapKind::kClustered: {
        // Fault batching rides the clustered layout's demand reads: the
        // pipeline's batch window becomes read widening (one disk op).
        auto layout = std::make_unique<ClusteredSwapLayout>(
            fs_.get(),
            ClusteredSwapLayout::Options{
                config_.allow_block_spanning, config_.durability.enabled,
                config_.pipeline.enabled
                    ? uint64_t{config_.pipeline.fault_batch_window}
                    : 0});
        clustered_swap_ = layout.get();
        inner = std::move(layout);
        break;
      }
      case CompressedSwapKind::kFixedOffset: {
        auto layout = std::make_unique<FixedCompressedSwapLayout>(
            fs_.get(), FixedCompressedSwapLayout::Options{config_.durability.enabled});
        fixed_cswap_ = layout.get();
        inner = std::move(layout);
        break;
      }
      case CompressedSwapKind::kLfs: {
        // The LFS segment buffer takes its frames from the pool up front — the
        // "significant memory for buffers" the paper holds against this design.
        LfsSwapLayout::Options lfs_options;
        lfs_options.durable = config_.durability.enabled;
        lfs_options.checkpoint_interval = config_.durability.lfs_checkpoint_interval;
        auto layout = std::make_unique<LfsSwapLayout>(fs_.get(), this, lfs_options);
        lfs_swap_ = layout.get();
        inner = std::move(layout);
        break;
      }
    }
    if (config_.tiers.enabled) {
      // Tier stack: the configured layout becomes the stack's bottom tier and
      // every intermediate tier (compressed DRAM, flash-class device) sits in
      // front of it, behind the same CompressedSwapBackend contract. With an
      // empty tier list the stack is degenerate and forwards verbatim.
      auto stack = std::make_unique<TierStack>(&clock_, &config_.costs, this,
                                               codec_.get(), std::move(inner),
                                               config_.tiers);
      tier_stack_ = stack.get();
      inner = std::move(stack);
    }
    if (config_.pipeline.enabled) {
      // Write-behind decorator: every layout write becomes a submitted
      // background batch; reads barrier on in-flight pages.
      auto behind = std::make_unique<WriteBehindBackend>(
          std::move(inner), &clock_,
          std::max<uint32_t>(1, config_.pipeline.write_behind_depth));
      write_behind_ = behind.get();
      cswap_ = std::move(behind);
    } else {
      cswap_ = std::move(inner);
    }
#ifndef NDEBUG
    // Layout identity: the typed alias must be the same object the owning
    // pointer (or its decorator) holds (guards against a future construction
    // path forgetting to set the alias).
    CompressedSwapBackend* layout_backend =
        write_behind_ != nullptr ? write_behind_->inner() : cswap_.get();
    if (tier_stack_ != nullptr) {
      CC_ASSERT(layout_backend == static_cast<CompressedSwapBackend*>(tier_stack_));
      layout_backend = tier_stack_->bottom_backend();
    }
    CC_ASSERT(static_cast<CompressedSwapBackend*>(clustered_swap_) == layout_backend ||
              static_cast<CompressedSwapBackend*>(fixed_cswap_) == layout_backend ||
              static_cast<CompressedSwapBackend*>(lfs_swap_) == layout_backend);
    CC_ASSERT((clustered_swap_ != nullptr) + (fixed_cswap_ != nullptr) +
                  (lfs_swap_ != nullptr) ==
              1);
#endif

    CcacheOptions cc_options;
    cc_options.max_slots = config_.ccache_max_frames != 0 ? config_.ccache_max_frames
                                                          : pool_.total_frames();
    cc_options.threshold = config_.threshold;
    cc_options.write_batch_bytes = config_.write_batch_bytes;
    cc_options.pool_free_target = std::max<size_t>(16, pool_.total_frames() / 64);
    cc_options.superblock_packing = config_.superblock_packing;
    ccache_ = std::make_unique<CompressionCache>(&clock_, &config_.costs, this, codec_.get(),
                                                 cswap_.get(), &event_router_, cc_options);
    ccache_->SetArena(&scratch_arena_);
    if (injector_ != nullptr) {
      ccache_->SetFaultInjector(injector_.get());
    }
    pager_->AttachCompressionCache(ccache_.get(), cswap_.get());
    if (config_.compress_file_cache) {
      buffer_cache_->SetCompressionCache(ccache_.get());
    }
    if (config_.pipeline.enabled) {
      pipeline_ = std::make_unique<PipelineEngine>(&clock_, &config_.costs, this,
                                                   ccache_.get(), write_behind_,
                                                   config_.pipeline);
      pipeline_->SetPager(pager_.get());
      pager_->SetPrefetcher(pipeline_.get());
    }

    if (config_.charge_metadata_overhead) {
      // Section 4.4: the codec's hash table (16 KB as measured), the 22 KB of
      // extra kernel code, and 8 bytes per possible cache slot, all resident.
      uint64_t boot_bytes = 22 * kKiB + 8ull * cc_options.max_slots;
      if (const auto* lzrw = dynamic_cast<const Lzrw1*>(codec_.get()); lzrw != nullptr) {
        boot_bytes += lzrw->hash_table_bytes();
      } else {
        boot_bytes += 16 * kKiB;
      }
      ChargeMetadataBytes(boot_bytes);
    }
  } else {
    fixed_swap_ = std::make_unique<FixedSwapLayout>(fs_.get());
    pager_->AttachFixedSwap(fixed_swap_.get());
  }

  // The buffer cache and pager publish the age of an LRU front that only moves
  // toward the present (evicting the front exposes a younger entry; touching
  // refreshes to now), so their ages are monotone and the auditor holds them to
  // it. The ccache is exempt: a fault hit refreshes the front entry's age in
  // place (ring position stays FIFO), so a later front can legitimately be
  // older than a previously published age.
  arbiter_.AddConsumer(
      "file_cache", [this] { return buffer_cache_->OldestAge(); },
      [this] { return buffer_cache_->ReleaseOldest(); }, config_.biases.file_cache,
      /*monotone_age=*/true);
  arbiter_.AddConsumer(
      "vm", [this] { return pager_->OldestAge(); },
      [this] { return pager_->ReleaseOldest(); }, config_.biases.vm,
      /*monotone_age=*/true);
  if (ccache_ != nullptr) {
    arbiter_.AddConsumer(
        "ccache", [this] { return ccache_->OldestAge(); },
        [this] { return ccache_->ReleaseOldest(); }, config_.biases.ccache,
        /*monotone_age=*/false);
  }
  if (pipeline_ != nullptr) {
    // Speculative frames compete at parity with resident VM pages: a buffered
    // prediction is a page expected to be referenced next, so it should not
    // be shredded the moment any consumer allocates — but a speculation that
    // has grown older than the oldest resident page is a stale guess and goes
    // first. Non-monotone: TryFill and Invalidate remove arbitrary entries,
    // so the front can jump around.
    arbiter_.AddConsumer(
        "prefetch", [this] { return pipeline_->OldestAge(); },
        [this] { return pipeline_->ReleaseOldest(); }, config_.biases.vm,
        /*monotone_age=*/false);
  }
  if (tier_stack_ != nullptr) {
    // Each compressed-RAM tier competes for physical frames like the ccache
    // ring does: its oldest entry's landing stamp plus kRamTierAgePenalty.
    // Releasing demotes LRU pages down the stack until a frame actually
    // frees. Non-monotone: promotion and invalidation remove arbitrary LRU
    // positions. Device-backed tiers hold no frames and are not registered.
    for (size_t t = 0; t < tier_stack_->num_tiers(); ++t) {
      if (!tier_stack_->tier_is_ram(t)) {
        continue;
      }
      TierStack* stack = tier_stack_;
      arbiter_.AddConsumer(
          "tier_" + tier_stack_->tier_name(t),
          [stack, t] { return stack->TierOldestAgeNs(t); },
          [stack, t] { return stack->TierReleaseOldestFrame(t); },
          kRamTierAgePenalty,
          /*monotone_age=*/false);
    }
  }

  audit_interval_ = config_.audit_interval;
  if (const char* env = std::getenv("CC_AUDIT_INTERVAL"); env != nullptr && *env != '\0') {
    audit_interval_ = static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  pager_->SetPostFaultHook([this] {
    if (ccache_ != nullptr) {
      ccache_->RunCleaner(pool_.free_frames());
    }
    // Audit after the cleaner so the checks see a quiescent machine: the fault
    // is fully serviced and no frame is mid-flight between subsystems.
    if (audit_interval_ > 0 && ++faults_since_audit_ >= audit_interval_) {
      faults_since_audit_ = 0;
      auditor_.RunAll();
    }
  });

  RegisterAuditChecks();
  BindAllMetrics();

  if (config_.trace_capacity > 0) {
    tracer_ = std::make_unique<EventTracer>(config_.trace_capacity);
    disk_->SetTracer(tracer_.get());
    if (injector_ != nullptr) {
      injector_->SetTracer(tracer_.get(), &clock_);
    }
    buffer_cache_->SetTracer(tracer_.get());
    pager_->SetTracer(tracer_.get());
    arbiter_.SetTracer(tracer_.get(), &clock_);
    if (ccache_ != nullptr) {
      ccache_->SetTracer(tracer_.get());
    }
    if (cswap_ != nullptr) {
      cswap_->SetTracer(tracer_.get());
    }
  }

  if (recover_from != nullptr) {
    RecoverFrom(*recover_from);
  }
}

void Machine::RecoverFrom(Machine& crashed) {
  const uint64_t start_ns = clock_.Now().nanos();
  recovery_.mounts = 1;
  if (cswap_ != nullptr && config_.durability.enabled) {
    const CompressedSwapBackend::MountStats mount = cswap_->Mount();
    recovery_.journal_replays = mount.journal_replays;
    recovery_.checkpoint_loads = mount.checkpoint_loads;
    recovery_.torn_writes_detected = mount.torn_writes_detected;
  }

  // Rebuild the address spaces: every old segment reappears under the same id.
  // A touched page whose image survived the mount resumes as swapped-out; the
  // rest are lost (zero-fill + segment abort, the existing degradation ladder).
  Pager& old_pager = crashed.pager();
  for (size_t sid = 0; sid < old_pager.num_segments(); ++sid) {
    Segment* old_seg = old_pager.GetSegment(static_cast<uint32_t>(sid));
    Segment* seg = pager_->CreateSegment(old_seg->num_pages());
    CC_ASSERT(seg->id() == old_seg->id());
    seg->set_owner_pid(old_seg->owner_pid());
    if (old_seg->torn_down()) {
      pager_->TeardownSegment(*seg);
      continue;
    }
    for (uint32_t p = 0; p < old_seg->num_pages(); ++p) {
      if (old_seg->page(p).state == PageState::kUntouched) {
        continue;
      }
      if (cswap_ != nullptr && cswap_->Contains(PageKey{seg->id(), p})) {
        pager_->RestoreSwappedPage(*seg, p);
        ++recovery_.pages_recovered;
      } else {
        pager_->RestoreLostPage(*seg, p);
        ++recovery_.pages_lost;
      }
    }
  }

  // Purge resurrected backend entries no restored page claims (frees whose
  // journal record never became durable): they would otherwise trip the
  // vm <-> backing orphan audit and leak blocks.
  if (cswap_ != nullptr) {
    std::vector<PageKey> orphans;
    cswap_->ForEachPage([&](PageKey key) {
      bool claimed = false;
      if (!IsFileKey(key) && key.segment < pager_->num_segments()) {
        Segment* seg = pager_->GetSegment(key.segment);
        if (!seg->torn_down() && key.page < seg->num_pages()) {
          claimed = seg->page(key.page).state == PageState::kSwapped;
        }
      }
      if (!claimed) {
        orphans.push_back(key);
      }
    });
    for (const PageKey key : orphans) {
      cswap_->Invalidate(key);
    }
    recovery_.orphans_discarded = orphans.size();
  }
  recovery_.mount_ns = clock_.Now().nanos() - start_ns;
}

void Machine::BindAllMetrics() {
  // Simulated-time breakdown (mirrors the Report() header line).
  metrics_.RegisterGauge("clock.now_ns",
                         [this] { return static_cast<double>(clock_.Now().nanos()); });
  metrics_.RegisterGauge("clock.cpu_ns", [this] {
    return static_cast<double>(clock_.TimeIn(TimeCategory::kCpu).nanos());
  });
  metrics_.RegisterGauge("clock.compress_ns", [this] {
    return static_cast<double>(clock_.TimeIn(TimeCategory::kCompression).nanos());
  });
  metrics_.RegisterGauge("clock.decompress_ns", [this] {
    return static_cast<double>(clock_.TimeIn(TimeCategory::kDecompression).nanos());
  });
  metrics_.RegisterGauge("clock.copy_ns", [this] {
    return static_cast<double>(clock_.TimeIn(TimeCategory::kCopy).nanos());
  });
  metrics_.RegisterGauge("clock.io_ns", [this] {
    return static_cast<double>(clock_.TimeIn(TimeCategory::kIo).nanos());
  });

  metrics_.RegisterGauge("mem.total_frames",
                         [this] { return static_cast<double>(pool_.total_frames()); });
  metrics_.RegisterGauge("mem.free_frames",
                         [this] { return static_cast<double>(pool_.free_frames()); });
  metrics_.RegisterGauge("mem.metadata_frames",
                         [this] { return static_cast<double>(metadata_frames_); });
  metrics_.RegisterGauge("mem.scratch_arena_blocks", [this] {
    return static_cast<double>(scratch_arena_.heap_blocks());
  });
  metrics_.RegisterGauge("mem.scratch_arena_bytes", [this] {
    return static_cast<double>(scratch_arena_.capacity());
  });

  if (injector_ != nullptr) {
    injector_->BindMetrics(&metrics_);
  }
  // Cross-layer integrity summary, always registered so bench JSON schemas are
  // stable whether or not faults are enabled.
  metrics_.RegisterGauge("fault.checksum_mismatches", [this] {
    double total = ccache_ != nullptr
                       ? static_cast<double>(ccache_->stats().checksum_mismatches)
                       : 0.0;
    if (tier_stack_ != nullptr) {
      // Sums the stack's own detections plus every tier backend's (the plain
      // accessor below would only see the outermost decorator's counter).
      total += static_cast<double>(tier_stack_->total_checksum_mismatches());
    } else if (cswap_ != nullptr) {
      total += static_cast<double>(cswap_->checksum_mismatches());
    }
    if (fixed_swap_ != nullptr) {
      total += static_cast<double>(fixed_swap_->checksum_mismatches());
    }
    return total;
  });
  metrics_.RegisterGauge("fault.pages_recovered", [this] {
    return static_cast<double>(pager_->stats().pages_recovered);
  });
  metrics_.RegisterGauge("fault.pages_lost", [this] {
    return static_cast<double>(pager_->stats().pages_lost);
  });
  metrics_.RegisterGauge("fault.segments_aborted", [this] {
    return static_cast<double>(pager_->stats().segments_aborted);
  });

  // Crash-recovery outcome, always registered for a stable bench JSON schema
  // (all-zero on machines that were not produced by Recover()).
  const RecoveryStats* rs = &recovery_;
  metrics_.RegisterCounterGauge("recovery.mounts",
                                [rs] { return static_cast<double>(rs->mounts); });
  metrics_.RegisterCounterGauge("recovery.pages_recovered",
                                [rs] { return static_cast<double>(rs->pages_recovered); });
  metrics_.RegisterCounterGauge("recovery.pages_lost",
                                [rs] { return static_cast<double>(rs->pages_lost); });
  metrics_.RegisterCounterGauge("recovery.orphans_discarded",
                                [rs] { return static_cast<double>(rs->orphans_discarded); });
  metrics_.RegisterCounterGauge("recovery.journal_replays",
                                [rs] { return static_cast<double>(rs->journal_replays); });
  metrics_.RegisterCounterGauge("recovery.checkpoint_loads",
                                [rs] { return static_cast<double>(rs->checkpoint_loads); });
  metrics_.RegisterCounterGauge("recovery.torn_writes_detected", [rs] {
    return static_cast<double>(rs->torn_writes_detected);
  });
  metrics_.RegisterCounterGauge("recovery.mount_ns",
                                [rs] { return static_cast<double>(rs->mount_ns); });

  disk_->BindMetrics(&metrics_);
  fs_->BindMetrics(&metrics_);
  buffer_cache_->BindMetrics(&metrics_);
  pager_->BindMetrics(&metrics_);
  arbiter_.BindMetrics(&metrics_);
  if (ccache_ != nullptr) {
    ccache_->BindMetrics(&metrics_);
  }
  if (cswap_ != nullptr) {
    cswap_->BindMetrics(&metrics_);
  }
  if (fixed_swap_ != nullptr) {
    fixed_swap_->BindMetrics(&metrics_);
  }
  if (pipeline_ != nullptr) {
    pipeline_->BindMetrics(&metrics_);
  }
  auditor_.BindMetrics(&metrics_);
}

Machine::~Machine() {
  // Shutdown audit: every registered invariant must hold at end of life — this
  // is where leaked swap fragments, stranded frames, and drifted gauges have no
  // transient excuse left. A power-failed machine is exempt: the crash tore it
  // mid-operation by design, and Recover() audits the rebuilt state instead.
  if (!disk_->power_failed()) {
    auditor_.RunAll();
  }
  // The compression cache and buffer cache return their frames to the pool in
  // their destructors; destroy them before the pool (member order handles this —
  // pool_ is declared before them, so it is destroyed after).
}

void Machine::RegisterAuditChecks() {
  // Frame conservation across the whole machine: every physical frame is free,
  // resident (VM), a buffer-cache block, a mapped ccache slot, wired metadata,
  // an LFS segment buffer, a prefetch-buffer entry, or a compressed-RAM tier
  // frame — and nothing else.
  auditor_.Register("machine", "frame-conservation", [this]() -> std::optional<std::string> {
    const size_t total = pool_.total_frames();
    const size_t free = pool_.free_frames();
    const size_t resident = pager_->resident_pages();
    const size_t bcache = buffer_cache_->num_blocks();
    const size_t ccache = ccache_ != nullptr ? ccache_->mapped_frames() : 0;
    size_t lfs_buffer = 0;
    if (lfs_swap_ != nullptr) {
      lfs_buffer = lfs_swap_->buffer_frame_count();
    }
    const size_t prefetch = pipeline_ != nullptr ? pipeline_->buffered_frames() : 0;
    const size_t tier_frames = tier_stack_ != nullptr ? tier_stack_->ram_frames_held() : 0;
    const size_t accounted = free + resident + bcache + ccache + metadata_frames_ +
                             lfs_buffer + prefetch + tier_frames;
    if (accounted != total) {
      return "pool holds " + std::to_string(total) + " frames but " +
             std::to_string(accounted) + " are accounted for (free " + std::to_string(free) +
             " + resident " + std::to_string(resident) + " + bcache " +
             std::to_string(bcache) + " + ccache " + std::to_string(ccache) +
             " + metadata " + std::to_string(metadata_frames_) + " + lfs buffer " +
             std::to_string(lfs_buffer) + " + prefetch " + std::to_string(prefetch) +
             " + tier " + std::to_string(tier_frames) + ")";
    }
    return std::nullopt;
  });
  // Every counter-kind metric is non-decreasing between audits. ResetStats()
  // clears the watermarks so an intentional zeroing is not a violation.
  auditor_.Register("metrics", "counters-monotone", [this]() -> std::optional<std::string> {
    for (const std::string& name : metrics_.counter_gauge_names()) {
      const double value = metrics_.GaugeValue(name);
      const auto [it, inserted] = counter_watermarks_.try_emplace(name, value);
      if (!inserted) {
        if (value < it->second) {
          return name + " moved backwards: " + std::to_string(it->second) + " -> " +
                 std::to_string(value);
        }
        it->second = value;
      }
    }
    return std::nullopt;
  });

  buffer_cache_->RegisterAuditChecks(&auditor_);
  pager_->RegisterAuditChecks(&auditor_);
  arbiter_.RegisterAuditChecks(&auditor_, &clock_);
  if (ccache_ != nullptr) {
    ccache_->RegisterAuditChecks(&auditor_);
  }
  if (cswap_ != nullptr) {
    cswap_->RegisterAuditChecks(&auditor_);
  }
  if (fixed_swap_ != nullptr) {
    fixed_swap_->RegisterAuditChecks(&auditor_);
  }
  if (pipeline_ != nullptr) {
    pipeline_->RegisterAuditChecks(&auditor_);
  }
}

void Machine::ResetStats() {
  disk_->ResetStats();
  fs_->ResetStats();
  buffer_cache_->ResetStats();
  pager_->ResetStats();
  arbiter_.ResetStats();
  if (ccache_ != nullptr) {
    ccache_->ResetStats();
  }
  if (cswap_ != nullptr) {
    cswap_->ResetStats();
  }
  if (fixed_swap_ != nullptr) {
    fixed_swap_->ResetStats();
  }
  if (pipeline_ != nullptr) {
    pipeline_->ResetStats();
  }
  recovery_ = RecoveryStats{};
  // Deliberately NOT reset: the fault injector (its nth-operation schedules
  // count operations from machine start; rebasing them would fire faults at
  // different absolute points) and the clock/occupancy state gauges.
  counter_watermarks_.clear();
}

void Machine::DrainPipeline() {
  if (pipeline_ != nullptr) {
    pipeline_->Flush();
  }
  if (write_behind_ != nullptr) {
    write_behind_->Drain(/*advance_clock=*/!disk_->power_failed());
  }
}

void Machine::ChargeMetadataBytes(uint64_t bytes) {
  metadata_bytes_charged_ += bytes;
  const size_t needed =
      static_cast<size_t>((metadata_bytes_charged_ + kPageSize - 1) / kPageSize);
  while (metadata_frames_ < needed) {
    (void)AllocateFrame();  // permanently consumed; intentionally never freed
    ++metadata_frames_;
  }
}

void Machine::SetCurrentProcess(uint32_t pid) {
  pager_->SetCurrentProcess(pid);
  if (tracer_ != nullptr) {
    tracer_->set_current_pid(pid);
  }
}

Heap Machine::NewHeap(uint64_t bytes) {
  return NewHeap(bytes, config_.costs.heap_cpu_per_access);
}

Heap Machine::NewHeap(uint64_t bytes, SimDuration cpu_per_access) {
  const size_t pages = static_cast<size_t>((bytes + kPageSize - 1) / kPageSize);
  Segment* segment = pager_->CreateSegment(pages);
  if (config_.charge_metadata_overhead) {
    // Section 4.4: 12 bytes per virtual page with the compression cache (8 of
    // them the cache's extension), 4 bytes in the unmodified system — resident
    // even for non-resident pages.
    ChargeMetadataBytes(pages * (config_.use_compression_cache ? 12 : 4));
  }
  return Heap(pager_.get(), segment, &clock_, cpu_per_access);
}

FrameId Machine::AllocateFrame() {
  int spins = 0;
  while (true) {
    CC_ASSERT(++spins < 1'000'000 && "AllocateFrame livelock");
    if (const auto frame = pool_.TryAllocate(); frame.has_value()) {
      return *frame;
    }
    // Harvest ring slots whose compressed entries were all invalidated — they
    // are free memory — before reclaiming anything that holds live data.
    if (ccache_ != nullptr && ccache_->FreeOneDeadSlot()) {
      continue;
    }
    if (!arbiter_.ReclaimOne()) {
      std::fprintf(stderr, "machine wedged: no frames and nothing reclaimable\n");
      std::abort();
    }
  }
}

std::optional<FrameId> Machine::TryAllocateFrame() {
  if (const auto frame = pool_.TryAllocate(); frame.has_value()) {
    return frame;
  }
  // Dead ring slots are free memory nobody is using; harvesting one is not a
  // reclaim, so speculative allocation may take it.
  if (ccache_ != nullptr && ccache_->FreeOneDeadSlot()) {
    return pool_.TryAllocate();
  }
  return std::nullopt;
}

void Machine::FreeFrame(FrameId id) { pool_.Free(id); }

std::span<uint8_t> Machine::FrameData(FrameId id) { return pool_.Data(id); }

std::string Machine::Report() const {
  char buf[4096];
  std::string out;

  const auto& vm = pager_->stats();
  std::snprintf(buf, sizeof(buf),
                "time: %.3f s (cpu %.3f, compress %.3f, decompress %.3f, copy %.3f, io %.3f)\n"
                "memory: %zu frames total, %zu free, %zu metadata\n"
                "vm: %llu accesses, %llu faults (%llu zero-fill, %llu ccache, %llu swap)\n"
                "    %llu evictions (%llu clean-drop, %llu compressed, %llu raw-swap,"
                " %llu std-write)\n",
                clock_.Now().seconds(), clock_.TimeIn(TimeCategory::kCpu).seconds(),
                clock_.TimeIn(TimeCategory::kCompression).seconds(),
                clock_.TimeIn(TimeCategory::kDecompression).seconds(),
                clock_.TimeIn(TimeCategory::kCopy).seconds(),
                clock_.TimeIn(TimeCategory::kIo).seconds(),
                pool_.total_frames(), pool_.free_frames(),
                metadata_frames_, static_cast<unsigned long long>(vm.accesses),
                static_cast<unsigned long long>(vm.faults),
                static_cast<unsigned long long>(vm.faults_zero_fill),
                static_cast<unsigned long long>(vm.faults_from_ccache),
                static_cast<unsigned long long>(vm.faults_from_swap),
                static_cast<unsigned long long>(vm.evictions),
                static_cast<unsigned long long>(vm.evictions_clean_drop),
                static_cast<unsigned long long>(vm.evictions_compressed),
                static_cast<unsigned long long>(vm.evictions_raw_swap),
                static_cast<unsigned long long>(vm.evictions_std_write));
  out += buf;

  if (ccache_ != nullptr) {
    const auto& cs = ccache_->stats();
    std::snprintf(
        buf, sizeof(buf),
        "ccache: %zu frames mapped (peak %llu), %zu entries\n"
        "        %llu compressed (%llu kept, %llu rejected), mean kept size %.1f%% of page\n"
        "        %llu fault hits, %llu cleaned, %llu dropped, %llu invalidated\n",
        ccache_->mapped_frames(), static_cast<unsigned long long>(cs.frames_mapped_peak),
        ccache_->live_entries(), static_cast<unsigned long long>(cs.pages_compressed),
        static_cast<unsigned long long>(cs.pages_kept),
        static_cast<unsigned long long>(cs.pages_rejected), cs.kept_ratio_pct.mean(),
        static_cast<unsigned long long>(cs.fault_hits),
        static_cast<unsigned long long>(cs.entries_cleaned),
        static_cast<unsigned long long>(cs.entries_dropped),
        static_cast<unsigned long long>(cs.invalidations));
    out += buf;
    if (const auto* clustered = clustered_swap_; clustered != nullptr) {
      const auto& sw = clustered->stats();
      std::snprintf(buf, sizeof(buf),
                    "cswap: %llu batches, %llu pages written, %llu read, "
                    "%llu payload bytes, %llu fragment bytes, %llu blocks reused\n",
                    static_cast<unsigned long long>(sw.batches_written),
                    static_cast<unsigned long long>(sw.pages_written),
                    static_cast<unsigned long long>(sw.pages_read),
                    static_cast<unsigned long long>(sw.payload_bytes_written),
                    static_cast<unsigned long long>(sw.fragment_bytes_written),
                    static_cast<unsigned long long>(sw.blocks_reused));
      out += buf;
    } else if (const auto* fixed = fixed_cswap_; fixed != nullptr) {
      const auto& sw = fixed->stats();
      std::snprintf(buf, sizeof(buf),
                    "fcswap: %llu pages written, %llu read, %llu payload bytes\n",
                    static_cast<unsigned long long>(sw.pages_written),
                    static_cast<unsigned long long>(sw.pages_read),
                    static_cast<unsigned long long>(sw.payload_bytes_written));
      out += buf;
    } else if (const auto* lfs = lfs_swap_; lfs != nullptr) {
      const auto& sw = lfs->stats();
      std::snprintf(buf, sizeof(buf),
                    "lfs: %llu pages written, %llu read (%llu from buffer), "
                    "%llu segments written, %llu cleaned, %llu live pages copied\n",
                    static_cast<unsigned long long>(sw.pages_written),
                    static_cast<unsigned long long>(sw.pages_read),
                    static_cast<unsigned long long>(sw.reads_from_buffer),
                    static_cast<unsigned long long>(sw.segments_written),
                    static_cast<unsigned long long>(sw.segments_cleaned),
                    static_cast<unsigned long long>(sw.live_pages_copied));
      out += buf;
    }
  } else {
    std::snprintf(buf, sizeof(buf), "fixed swap: %llu pages written, %llu pages read\n",
                  static_cast<unsigned long long>(fixed_swap_->pages_written()),
                  static_cast<unsigned long long>(fixed_swap_->pages_read()));
    out += buf;
  }

  if (tier_stack_ != nullptr) {
    // Intermediate tiers only; the bottom tier is the layout reported above.
    for (size_t t = 0; t + 1 < tier_stack_->num_tiers(); ++t) {
      const TierCounters& tc = tier_stack_->tier_counters(t);
      std::snprintf(buf, sizeof(buf),
                    "tier %-8s %zu pages (%llu KB), %llu landings, "
                    "%llu/%llu demotions in/out, %llu/%llu promotions in/out, "
                    "%llu reads, %llu transcodes\n",
                    tier_stack_->tier_name(t).c_str(), tier_stack_->tier_pages(t),
                    static_cast<unsigned long long>(tier_stack_->tier_sub_blocks(t)),
                    static_cast<unsigned long long>(tc.landings),
                    static_cast<unsigned long long>(tc.demotions_in),
                    static_cast<unsigned long long>(tc.demotions_out),
                    static_cast<unsigned long long>(tc.promotions_in),
                    static_cast<unsigned long long>(tc.promotions_out),
                    static_cast<unsigned long long>(tc.reads),
                    static_cast<unsigned long long>(tc.transcodes));
      out += buf;
    }
  }

  if (write_behind_ != nullptr) {
    const auto& wb = write_behind_->stats();
    const auto& ps = pipeline_->stats();
    std::snprintf(buf, sizeof(buf),
                  "pipeline: %llu batches submitted (%llu completed, %zu in flight), "
                  "%llu barrier / %llu backpressure stalls\n"
                  "prefetch: %llu issued, %llu hits, %llu misses, %llu batched\n",
                  static_cast<unsigned long long>(wb.batches_submitted),
                  static_cast<unsigned long long>(wb.batches_completed),
                  write_behind_->inflight_batches(),
                  static_cast<unsigned long long>(wb.barrier_stalls),
                  static_cast<unsigned long long>(wb.backpressure_stalls),
                  static_cast<unsigned long long>(ps.issued),
                  static_cast<unsigned long long>(ps.hits),
                  static_cast<unsigned long long>(ps.misses),
                  static_cast<unsigned long long>(ps.batched));
    out += buf;
  }

  const auto& ds = disk_->stats();
  std::snprintf(buf, sizeof(buf),
                "disk: %llu reads / %llu writes, %.1f MB read, %.1f MB written, busy %.3f s\n",
                static_cast<unsigned long long>(ds.read_ops),
                static_cast<unsigned long long>(ds.write_ops),
                static_cast<double>(ds.bytes_read) / 1e6,
                static_cast<double>(ds.bytes_written) / 1e6, ds.busy_time.seconds());
  out += buf;

  if (injector_ != nullptr || vm.pages_lost > 0 || vm.pages_recovered > 0) {
    std::snprintf(buf, sizeof(buf),
                  "faults: %llu injected, %llu read / %llu write retries "
                  "(%llu exhausted), %llu pages recovered, %llu lost, "
                  "%llu segments aborted\n",
                  static_cast<unsigned long long>(
                      injector_ != nullptr ? injector_->total_injected() : 0),
                  static_cast<unsigned long long>(ds.read_retries),
                  static_cast<unsigned long long>(ds.write_retries),
                  static_cast<unsigned long long>(ds.reads_exhausted + ds.writes_exhausted),
                  static_cast<unsigned long long>(vm.pages_recovered),
                  static_cast<unsigned long long>(vm.pages_lost),
                  static_cast<unsigned long long>(vm.segments_aborted));
    out += buf;
  }

  const auto& bc = buffer_cache_->stats();
  std::snprintf(buf, sizeof(buf), "buffer cache: %zu blocks, %llu hits, %llu misses\n",
                buffer_cache_->num_blocks(), static_cast<unsigned long long>(bc.hits),
                static_cast<unsigned long long>(bc.misses));
  out += buf;

  for (const auto& c : arbiter_.consumers()) {
    std::snprintf(buf, sizeof(buf), "arbiter: %-10s %llu reclaims, %llu refusals\n",
                  c.name.c_str(), static_cast<unsigned long long>(c.reclaims),
                  static_cast<unsigned long long>(c.refusals));
    out += buf;
  }
  return out;
}

}  // namespace compcache
