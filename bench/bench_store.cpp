// Durable-store benchmarks (docs/STORE.md): journal append throughput
// with and without per-append fsync, and recovery time as a function of
// journal size.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "store/journal.hpp"

namespace {

using namespace rat;
namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "rat_bench_store" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void BM_JournalAppendSynced(benchmark::State& state) {
  // The durability price: one write(2) + fsync per record. Real media
  // will be slower than the CI tmpfs; the shape, not the number, is the
  // point.
  const fs::path dir = fresh_dir("append_synced");
  store::JournalWriter writer(dir / "journal", {.sync_every_append = true});
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) benchmark::DoNotOptimize(writer.append(payload));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_JournalAppendSynced)->Arg(64)->Arg(1024)->Arg(16384);

void BM_JournalAppendUnsynced(benchmark::State& state) {
  // What checkpointed sweeps with sync_every_append=false pay per point.
  const fs::path dir = fresh_dir("append_unsynced");
  store::JournalWriter writer(dir / "journal", {.sync_every_append = false});
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) benchmark::DoNotOptimize(writer.append(payload));
  writer.sync();
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_JournalAppendUnsynced)->Arg(64)->Arg(1024)->Arg(16384);

void BM_JournalRecovery(benchmark::State& state) {
  // Recovery scans and CRC-checks every record: expect linear time in
  // journal bytes. Arg = record count at 1 KiB per record.
  const fs::path dir = fresh_dir("recovery");
  const fs::path path = dir / "journal";
  {
    store::JournalWriter writer(path, {.sync_every_append = false});
    const std::string payload(1024, 'r');
    for (std::int64_t i = 0; i < state.range(0); ++i) writer.append(payload);
  }
  for (auto _ : state) {
    store::RecoveredJournal r = store::recover_journal(path);
    benchmark::DoNotOptimize(r.records.data());
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(fs::file_size(path)));
}
BENCHMARK(BM_JournalRecovery)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
