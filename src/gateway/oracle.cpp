#include "gateway/oracle.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <vector>

#include "gateway/clients.h"
#include "gateway/gateway.h"
#include "rtmp/handshake.h"
#include "testing/fuzz_target.h"
#include "testing/mutator.h"

namespace psc::gateway {

namespace {

namespace fs = std::filesystem;

struct PoolEntry {
  Bytes data;
  bool is_http = false;  // route to the HTTP listener instead of RTMP
};

void load_target_pool(const std::string& name, bool is_http,
                      const std::string& corpus_dir,
                      std::vector<PoolEntry>& pool) {
  const testing::FuzzTarget* t = testing::TargetRegistry::instance().find(name);
  if (t != nullptr && t->corpus) {
    for (Bytes& b : t->corpus()) pool.push_back({std::move(b), is_http});
  }
  if (corpus_dir.empty()) return;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(corpus_dir) / name, ec)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    Bytes b((std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
    pool.push_back({std::move(b), is_http});
  }
}

/// Pump the peer and the gateway until the peer's queue drains (or the
/// gateway closed the connection). Bounded: a gateway that stops reading
/// must not hang the oracle.
void pump_until_drained(Gateway& gw, SocketPump& pump, int max_turns) {
  Bytes discard;
  for (int i = 0; i < max_turns; ++i) {
    const bool alive = pump.step(discard);
    discard.clear();
    gw.poll_once(0);
    if (!alive || pump.closed() || pump.peer_closed()) return;
    if (pump.pending() == 0) return;
  }
}

/// Drive the gateway until every oracle connection is gone.
bool settle(Gateway& gw, int max_turns) {
  for (int i = 0; i < max_turns; ++i) {
    if (gw.loop().connection_count() == 0) return true;
    gw.poll_once(1);
  }
  return gw.loop().connection_count() == 0;
}

bool healthz_ok(Gateway& gw) {
  HlsFetchClient probe;
  if (!probe.connect(gw.http_port()).ok()) return false;
  probe.get("/healthz");
  for (int i = 0; i < 2000 && !probe.done(); ++i) {
    if (!probe.step()) return false;
    gw.poll_once(0);
  }
  if (!probe.done()) return false;
  const bool ok = probe.take_response().status == 200;
  probe.close();
  settle(gw, 200);
  return ok;
}

/// The RTMP reassembly budget over a real socket: a peer that completes
/// the handshake, then starts messages on 64 chunk streams and finishes
/// none, must be cut off with exactly one counted protocol error and
/// leave no connection behind. Returns "" or what went wrong.
std::string chunk_flood_refused(Gateway& gw) {
  obs::Counter& errors =
      gw.metrics().counter("gateway_rtmp_protocol_errors_total");
  const double before = errors.value();
  SocketPump peer;
  if (!peer.connect(gw.rtmp_port()).ok()) return "connect refused";
  peer.queue(rtmp::make_hello(0, 1));
  Bytes s0s1;
  constexpr std::size_t kHello = 1 + rtmp::kHandshakeBlobSize;
  for (int i = 0; i < 10000 && s0s1.size() < kHello; ++i) {
    if (!peer.step(s0s1)) break;
    gw.poll_once(0);
  }
  if (s0s1.size() < kHello) return "no S0+S1 from the gateway";
  peer.queue(Bytes(s0s1.begin() + 1, s0s1.begin() + kHello));  // C2
  peer.queue(testing::rtmp_chunk_stream_flood(64, 4096, 8192));
  Bytes discard;
  for (int i = 0; i < 20000; ++i) {
    if (!peer.step(discard) || peer.peer_closed()) break;
    discard.clear();
    gw.poll_once(0);
  }
  const bool cut_off = peer.closed() || peer.peer_closed();
  peer.close();
  if (!settle(gw, 2000)) return "connection leaked";
  if (!cut_off) return "flooding peer still connected";
  if (errors.value() != before + 1) return "protocol error not counted once";
  return "";
}

}  // namespace

int run_gateway_oracle(const OracleOptions& opts, std::ostream& out) {
  testing::register_builtin_targets();

  std::vector<PoolEntry> pool;
  load_target_pool("rtmp_handshake", /*is_http=*/false, opts.corpus_dir, pool);
  load_target_pool("rtmp_chunk", /*is_http=*/false, opts.corpus_dir, pool);
  load_target_pool("http_request", /*is_http=*/true, opts.corpus_dir, pool);
  if (pool.empty()) {
    out << "gateway oracle: no corpus entries (unknown targets?)\n";
    return 1;
  }
  std::vector<Bytes> splice_corpus;
  splice_corpus.reserve(pool.size());
  for (const PoolEntry& e : pool) splice_corpus.push_back(e.data);

  GatewayConfig cfg;
  cfg.rtmp_port = 0;
  cfg.http_port = 0;
  cfg.enable_api = false;
  cfg.seed = opts.seed;
  Gateway gw(cfg);
  if (const Status s = gw.start(); !s.ok()) {
    out << "gateway oracle: start failed: " << s.error().to_string() << "\n";
    return 1;
  }

  testing::Mutator mutator(opts.seed);
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::uint64_t violations = 0;

  for (std::uint64_t iter = 0; iter < opts.iters; ++iter) {
    const PoolEntry& entry = pool[mutator.below(pool.size())];
    Bytes mutant = mutator.mutate(entry.data, splice_corpus);
    if (mutant.size() > opts.max_input_bytes) {
      mutant.resize(opts.max_input_bytes);
    }
    digest = testing::fnv1a(mutant, digest);

    SocketPump peer;
    if (!peer.connect(entry.is_http ? gw.http_port() : gw.rtmp_port()).ok()) {
      ++violations;
      out << "gateway oracle: iter " << iter << ": connect refused\n";
      break;
    }
    // Feed the mutant in deterministic random-sized slices; the kernel is
    // free to refragment further.
    std::size_t off = 0;
    while (off < mutant.size()) {
      const std::size_t n =
          std::min(mutant.size() - off, 1 + mutator.below(4096));
      peer.queue(Bytes(mutant.begin() + static_cast<std::ptrdiff_t>(off),
                       mutant.begin() + static_cast<std::ptrdiff_t>(off + n)));
      off += n;
      pump_until_drained(gw, peer, 10000);
      if (peer.closed() || peer.peer_closed()) break;
    }
    peer.close();
    if (!settle(gw, 2000)) {
      ++violations;
      out << "gateway oracle: iter " << iter << ": "
          << gw.loop().connection_count()
          << " connection(s) leaked after peer close\n";
    }
    if ((iter + 1) % 50 == 0 && !healthz_ok(gw)) {
      ++violations;
      out << "gateway oracle: iter " << iter << ": /healthz failed\n";
    }
  }

  if (const std::string why = chunk_flood_refused(gw); !why.empty()) {
    ++violations;
    out << "gateway oracle: chunk-stream flood: " << why << "\n";
  }

  const bool healthy = healthz_ok(gw);
  if (!healthy) out << "gateway oracle: final /healthz failed\n";
  out << "FUZZ {\"target\":\"gateway_live_peer\",\"iters\":" << opts.iters
      << ",\"seed\":" << opts.seed << ",\"violations\":" << violations
      << ",\"digest\":\"" << std::hex << digest << std::dec << "\"}\n";
  return violations == 0 && healthy ? 0 : 1;
}

}  // namespace psc::gateway
