#include "gateway_live.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/stats.h"
#include "gateway/clients.h"
#include "gateway/gateway.h"
#include "layers.h"

namespace psc::suite {

namespace {

// Workload definition.
constexpr double kPace = 4.0;            // media seconds published per wall s
constexpr double kChurnRate = 10;        // joins per second
constexpr double kPlaylistEvery = 0.25;  // playlist refresh per fetcher, s
constexpr double kTimeout = 2.0;         // later responses count as failed
constexpr int kClosedWindow = 4;         // in-flight GETs per fetcher
constexpr double kOpenShare = 0.6;       // of --seconds; the rest is closed
constexpr double kSetupLimit = 20;       // s to reach the first segment
constexpr double kMaxLateMs = 50;        // p99 send lateness of a valid run
constexpr const char* kStream = "benchlive0001";

double thread_cpu_s(pthread_t t) {
  clockid_t id;
  timespec ts{};
  if (pthread_getcpuclockid(t, &id) != 0 || clock_gettime(id, &ts) != 0) {
    return 0;
  }
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/// What the generator saw.
struct GenStats {
  std::vector<double> fetch_ms;  // open-loop segment GETs, from due time
  std::vector<double> join_ms;   // churn joins, from due time
  std::vector<double> late_ms;   // send time - due time (open loop)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Completion instants of closed-loop segment GETs, and the phase.
  std::vector<double> closed_at;
  double closed_start = 0;
  double closed_s = 0;

  /// max_rps: closed-loop GETs per second, the median over 1 s windows of
  /// the phase (one window when the phase is shorter), so a stall in one
  /// window does not set the number.
  double max_rps() const {
    const int windows = std::max(1, static_cast<int>(closed_s));
    const double width = closed_s / windows;
    std::vector<double> rates(static_cast<std::size_t>(windows), 0);
    for (double at : closed_at) {
      const int w = static_cast<int>((at - closed_start) / width);
      if (w >= 0 && w < windows) rates[static_cast<std::size_t>(w)] += 1;
    }
    for (double& r : rates) r /= width;
    return analysis::median(rates);
  }
  /// First body served for each segment URI; every later response for
  /// the URI is compared against it as it arrives.
  struct Body {
    Bytes data;
    bool complete = false;
  };
  std::map<std::string, Body> first_body;
  /// Responses that arrived while their URI's first body was still
  /// streaming in on the other connection; compared after the run.
  std::vector<std::pair<std::string, Bytes>> deferred;
  std::string body_mismatch;
};

/// One keep-alive HTTP/1.1 client connection of the load generator: raw
/// non-blocking socket, pipelined GETs, responses framed by
/// Content-Length. Independent of the program's own client code so that
/// a change there cannot move the load the gateway sees.
class HttpConn {
 public:
  enum class Kind { playlist, segment };
  struct Req {
    Kind kind = Kind::segment;
    std::string uri;
    double due = 0;
    bool open_loop = true;
    bool join = false;
  };
  /// A completed response (status, its request, playlist text).
  struct Done {
    Req req;
    int status = 0;
    std::string text;
    double at = 0;
  };

  explicit HttpConn(GenStats& stats) : stats_(stats) {}
  ~HttpConn() { close(); }
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  bool connect(std::uint16_t port) {
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int rc =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      close();
      return false;
    }
    connecting_ = rc != 0;
    return true;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    connecting_ = false;
    out_.clear();
    head_.clear();
    if (store_ != nullptr) {
      // A first body cut short: the next response for the URI takes over.
      stats_.first_body.erase(store_uri_);
    }
    in_body_ = false;
    store_ = nullptr;
    compare_ = nullptr;
  }

  int fd() const { return fd_; }
  bool open() const { return fd_ >= 0; }
  bool connecting() const { return connecting_; }
  std::size_t in_flight() const { return pending_.size(); }
  bool wants_write() const { return connecting_ || !out_.empty(); }
  std::deque<Req>& pending() { return pending_; }

  void get(Req r) {
    out_ += "GET /hls/" + std::string(kStream) + "/" + r.uri +
            " HTTP/1.1\r\nHost: gateway\r\n\r\n";
    pending_.push_back(std::move(r));
    flush();
  }

  /// Socket is writable: finish connecting / flush queued requests.
  bool on_writable() {
    if (connecting_) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) return false;
      connecting_ = false;
    }
    return flush();
  }

  /// Socket is readable: frame responses. Segment bodies stream into
  /// GenStats::first_body (first sight of a URI) or are compared against
  /// it. Returns false once the connection is gone.
  bool on_readable(std::vector<Done>& done) {
    for (;;) {
      const ssize_t n = ::recv(fd_, buf_.data(), buf_.size(), 0);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      const double at = now_s();
      std::size_t off = 0;
      const std::size_t len = static_cast<std::size_t>(n);
      while (off < len) {
        if (!in_body_) {
          // Header bytes until the blank line.
          const std::size_t before = head_.size();
          head_.append(reinterpret_cast<const char*>(buf_.data()) + off, len - off);
          const std::size_t end = head_.find("\r\n\r\n");
          if (end == std::string::npos) {
            off = len;
            continue;
          }
          off += end + 4 - before;
          if (pending_.empty()) return false;  // unsolicited response
          status_ = std::atoi(head_.c_str() + head_.find(' ') + 1);
          body_left_ = content_length(head_);
          body_seen_ = 0;
          head_.clear();
          text_.clear();
          in_body_ = true;
          begin_body();
        }
        const std::size_t take = std::min(body_left_, len - off);
        body_chunk(buf_.data() + off, take);
        off += take;
        body_left_ -= take;
        if (body_left_ == 0) {
          in_body_ = false;
          end_body();
          done.push_back({std::move(pending_.front()), status_,
                          std::move(text_), at});
          pending_.pop_front();
        }
      }
    }
  }

 private:
  static std::size_t content_length(const std::string& head) {
    for (std::size_t i = 0; i + 15 <= head.size(); ++i) {
      if (strncasecmp(head.c_str() + i, "content-length:", 15) == 0) {
        return static_cast<std::size_t>(
            std::strtoull(head.c_str() + i + 15, nullptr, 10));
      }
    }
    return 0;
  }

  void begin_body() {
    const Req& r = pending_.front();
    store_ = nullptr;
    compare_ = nullptr;
    own_.clear();
    if (r.kind != Kind::segment || status_ != 200) return;
    auto [it, fresh] = stats_.first_body.try_emplace(r.uri);
    if (fresh) {
      store_ = &it->second;
      store_uri_ = r.uri;
    } else if (it->second.complete) {
      compare_ = &it->second.data;
    }
  }

  void body_chunk(const std::uint8_t* p, std::size_t n) {
    const Req& r = pending_.front();
    if (store_ != nullptr) {
      store_->data.insert(store_->data.end(), p, p + n);
    } else if (compare_ != nullptr) {
      if (body_seen_ + n > compare_->size() ||
          std::memcmp(compare_->data() + body_seen_, p, n) != 0) {
        stats_.body_mismatch = r.uri;
      }
    } else if (r.kind == Kind::playlist) {
      text_.append(reinterpret_cast<const char*>(p), n);
    } else if (status_ == 200) {
      own_.insert(own_.end(), p, p + n);
    }
    body_seen_ += n;
  }

  void end_body() {
    const Req& r = pending_.front();
    if (store_ != nullptr) {
      store_->complete = true;
      store_ = nullptr;
    } else if (compare_ != nullptr) {
      if (body_seen_ != compare_->size()) stats_.body_mismatch = r.uri;
    } else if (r.kind == Kind::segment && status_ == 200) {
      stats_.deferred.emplace_back(r.uri, std::move(own_));
    }
  }

  bool flush() {
    while (!connecting_ && !out_.empty()) {
      const ssize_t n = ::send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      out_.erase(0, static_cast<std::size_t>(n));
    }
    return true;
  }

  GenStats& stats_;
  int fd_ = -1;
  bool connecting_ = false;
  std::string out_;
  std::deque<Req> pending_;
  std::string head_;
  bool in_body_ = false;
  int status_ = 0;
  std::size_t body_left_ = 0;
  std::size_t body_seen_ = 0;
  std::string text_;
  GenStats::Body* store_ = nullptr;
  std::string store_uri_;
  const Bytes* compare_ = nullptr;
  Bytes own_;
  std::vector<std::uint8_t> buf_ = std::vector<std::uint8_t>(256 * 1024);
};

/// Segment URIs a media playlist lists, oldest first.
std::vector<std::string> playlist_segments(const std::string& playlist) {
  std::vector<std::string> uris;
  std::size_t pos = 0;
  while (pos < playlist.size()) {
    std::size_t eol = playlist.find('\n', pos);
    if (eol == std::string::npos) eol = playlist.size();
    std::string line = playlist.substr(pos, eol - pos);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty() && line[0] != '#') uris.push_back(std::move(line));
    pos = eol + 1;
  }
  return uris;
}

/// Gateway-thread observations (traced runs sample every turn).
struct LoopStats {
  std::uint64_t turns = 0;
  std::uint64_t events = 0;
  double busy_s = 0;
  double loop_s = 0;
  std::vector<double> busy_turn_us;
  std::vector<double> lag_ms;
  std::size_t queue_bytes_max = 0;
};

void gateway_loop(gateway::Gateway& gw, const std::atomic<bool>& stop,
                  bool traced, LoopStats& st) {
  const double start = now_s();
  while (!stop.load(std::memory_order_relaxed)) {
    if (!traced) {
      gw.poll_once();
      continue;
    }
    const double t0 = now_s();
    const int n = gw.poll_once();
    const double t1 = now_s();
    ++st.turns;
    st.events += static_cast<std::uint64_t>(n);
    if (n > 0) {
      st.busy_s += t1 - t0;
      st.busy_turn_us.push_back((t1 - t0) * 1e6);
    }
    st.queue_bytes_max = std::max(st.queue_bytes_max,
                                  gw.loop().total_buffered());
    st.lag_ms.push_back(
        (gw.bridge().wall_elapsed_s() - to_s(gw.bridge().now())) * 1e3);
  }
  st.loop_s = now_s() - start;
}

/// gateway_loop on its own thread; stops and joins on destruction, so the
/// thread never outlives the gateway or the stats it writes.
class LoopThread {
 public:
  LoopThread(gateway::Gateway& gw, bool traced, LoopStats& st)
      : thread_(gateway_loop, std::ref(gw), std::cref(stop_), traced,
                std::ref(st)) {}
  ~LoopThread() { join(); }
  LoopThread(const LoopThread&) = delete;
  LoopThread& operator=(const LoopThread&) = delete;

  void join() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  double cpu_s() { return thread_cpu_s(thread_.native_handle()); }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Output checks, run after the timed phases: every distinct segment
/// served equals gateway::sim_reference_segments, every repeat equals the
/// first, each phase completed requests, and the generator kept to its
/// schedule. `tamper` corrupts one reference segment (negative test).
void check_served(const GenStats& g, const gateway::SyntheticMedia& media,
                  const gateway::GatewayConfig& cfg, bool tamper,
                  Outcome& out) {
  if (!g.body_mismatch.empty()) {
    out.fail("repeat fetch of " + g.body_mismatch +
             " returned different bytes");
  }
  std::vector<hls::Segment> reference = gateway::sim_reference_segments(
      media, kStream, cfg.segment_target, cfg.seed);
  if (tamper && !reference.empty()) {
    Bytes bad(reference[0].ts_data.view().begin(),
              reference[0].ts_data.view().end());
    if (!bad.empty()) bad[bad.size() / 2] ^= 0x5A;
    reference[0].ts_data = util::BufferSlice(std::move(bad));
  }
  for (const auto& [uri, body] : g.deferred) {
    const auto first = g.first_body.find(uri);
    if (first == g.first_body.end() || first->second.data != body) {
      out.fail("repeat fetch of " + uri + " returned different bytes");
    }
  }
  std::size_t compared = 0;
  for (const auto& [uri, first] : g.first_body) {
    const Bytes& body = first.data;
    const std::uint64_t seq =
        std::strtoull(uri.c_str() + uri.find('_') + 1, nullptr, 10);
    const hls::Segment* ref = nullptr;
    for (const hls::Segment& s : reference) {
      if (s.sequence == seq) ref = &s;
    }
    if (ref == nullptr || ref->ts_data.size() != body.size() ||
        std::memcmp(ref->ts_data.data(), body.data(), body.size()) != 0) {
      out.fail("served " + uri + " differs from the sans-io reference");
    }
    ++compared;
  }
  std::printf("verify: %zu distinct segments byte-compared against the "
              "sans-io reference\n",
              compared);
  if (compared == 0) out.fail("no segment was served");
  if (analysis::quantile(g.late_ms, 0.99) > kMaxLateMs) {
    out.fail("the generator fell behind its open-loop schedule");
  }
  if (g.fetch_ms.empty() || g.join_ms.empty() || g.closed_at.empty()) {
    out.fail("a phase completed no requests");
  }
}

/// One complete gateway session: set-up (gateway + publisher up to the
/// first committed segment), then unless `setup_only` the open- and
/// closed-loop phases and the output checks.
struct Session {
  GenStats gen;
  LoopStats loop;
  double gw_cpu_s = 0;
  std::uint64_t gw_requests = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t segments_stored = 0;
  std::size_t ingest_bytes = 0;
  double frames_media_s = 0;
};

Session run_session(const Options& opts, bool traced, bool setup_only,
                    double* ready_s, Spans& spans, Outcome& out) {
  Session ses;
  const std::uint64_t seed = mix_seed(opts.seed, 0x6A7E);
  const double open_s = kOpenShare * opts.seconds;
  const double closed_s = opts.seconds - open_s;
  // Smoke runs publish faster so set-up reaches its first segment sooner.
  const double pace = opts.smoke ? 4 * kPace : kPace;
  const double fps = media::VideoConfig{}.fps;

  // ---- set-up ----
  int phase_span = spans.begin("setup");
  gateway::SyntheticMedia media;
  {
    auto s = spans.scope("gateway.synthetic_frames");
    const int frames = static_cast<int>((opts.seconds + 8) * pace * fps);
    media = gateway::synthetic_frames(seed, frames);
  }
  ses.frames_media_s = static_cast<double>(media.samples.size()) / fps;
  gateway::GatewayConfig cfg;
  cfg.rtmp_port = 0;
  cfg.http_port = 0;
  cfg.enable_api = false;
  cfg.seed = seed;
  auto gw = std::make_unique<gateway::Gateway>(cfg);
  if (!gw->start().ok()) {
    out.fail("gateway start failed");
    return ses;
  }
  gateway::PublishClient pub("live", kStream, seed + 1);
  if (!pub.connect(gw->rtmp_port()).ok()) {
    out.fail("publisher connect failed");
    return ses;
  }
  std::size_t next_frame = 0;
  double pub_t0 = -1;
  // Publisher pacing: frame i is due `pace` times faster than its dts.
  const auto publish_due = [&](double now) {
    if (pub_t0 < 0) {
      if (!pub.publishing()) return;
      pub.send_avc_config(media.sps, media.pps);
      pub_t0 = now;
    }
    while (next_frame < media.samples.size() &&
           pub_t0 + to_s(media.samples[next_frame].dts) / pace <= now) {
      ses.ingest_bytes += media.samples[next_frame].data.size();
      pub.send_sample(media.samples[next_frame++]);
    }
  };
  {
    auto s = spans.scope("gateway.publish_to_first_segment");
    const double limit = now_s() + kSetupLimit;
    while (gw->store().segments_stored() == 0) {
      if (now_s() > limit || !pub.step()) {
        out.fail("no segment committed during set-up");
        return ses;
      }
      publish_due(now_s());
      gw->poll_once(1);
    }
  }
  *ready_s = now_s();
  spans.end(phase_span);
  if (setup_only) return ses;
  phase_span = spans.begin("measure");

  // ---- measurement ----
  const std::uint64_t requests0 = gw->http_requests();
  LoopThread loop_thread(*gw, traced, ses.loop);
  const double cpu0 = loop_thread.cpu_s();

  GenStats& g = ses.gen;
  HttpConn fetch0(g);
  HttpConn fetch1(g);
  HttpConn churn(g);
  HttpConn* fetch[2] = {&fetch0, &fetch1};
  // The latest playlist's segments. Open-loop and join GETs take the live
  // edge; the closed loop cycles through the whole window, so its rate
  // does not hinge on the size of whichever segment happens to be newest.
  std::vector<std::string> listed = {"seg_0.ts"};
  std::size_t closed_next = 0;
  for (HttpConn* c : fetch) {
    if (!c->connect(gw->http_port())) out.fail("fetch connect failed");
  }
  const double t_open = now_s();
  const double t_closed = t_open + open_s;
  const double t_end = t_closed + closed_s;
  const double per_conn = 2.0 / kNominalRate;
  double next_slot[2] = {t_open, t_open + per_conn / 2};
  double next_playlist[2] = {t_open, t_open + kPlaylistEvery / 2};
  double next_join = t_open;
  double join_due = 0;
  bool publisher_ok = true;
  std::vector<HttpConn::Done> done;

  const auto send = [&](HttpConn& c, HttpConn::Req r, double now) {
    if (r.open_loop) g.late_ms.push_back((now - r.due) * 1e3);
    ++g.attempted;
    c.get(std::move(r));
  };
  // A dead or overdue connection fails what it still owes; a fetcher
  // reconnects at once, the churn connection starts its next join.
  const auto fail_pending = [&](HttpConn& c) {
    g.failed += c.pending().size();
    c.pending().clear();
    c.close();
    if (&c != &churn && !c.connect(gw->http_port())) {
      out.fail("fetch reconnect failed");
    }
  };

  for (;;) {
    const double now = now_s();
    const bool open_phase = now < t_closed;
    const bool closed_phase = !open_phase && now < t_end;
    if (publisher_ok) {
      publish_due(now);
      publisher_ok = pub.step();
      if (!publisher_ok) out.fail("publisher connection dropped");
    }
    for (int i = 0; i < 2; ++i) {
      HttpConn& c = *fetch[i];
      if (!c.open()) continue;
      if (open_phase || closed_phase) {
        while (next_playlist[i] <= now) {
          send(c, {HttpConn::Kind::playlist, "media.m3u8", next_playlist[i],
                   false},
               now);
          next_playlist[i] += kPlaylistEvery;
        }
      }
      if (open_phase) {
        while (next_slot[i] <= now && next_slot[i] < t_closed) {
          send(c, {HttpConn::Kind::segment, listed.back(), next_slot[i], true},
               now);
          next_slot[i] += per_conn;
        }
      } else if (closed_phase) {
        std::size_t closed_in_flight = 0;
        for (const HttpConn::Req& r : c.pending()) {
          closed_in_flight += r.kind == HttpConn::Kind::segment && !r.open_loop;
        }
        for (; closed_in_flight < kClosedWindow; ++closed_in_flight) {
          send(c,
               {HttpConn::Kind::segment,
                listed[closed_next++ % listed.size()], now, false},
               now);
        }
      }
    }
    // Churn: connect -> GET media.m3u8 -> GET newest segment -> close.
    if (open_phase && !churn.open() && next_join <= now) {
      join_due = next_join;
      next_join += 1.0 / kChurnRate;
      g.late_ms.push_back((now - join_due) * 1e3);
      if (!churn.connect(gw->http_port())) {
        ++g.attempted;
        ++g.failed;
      }
    }
    if (churn.open() && !churn.connecting() && churn.in_flight() == 0 &&
        !churn.wants_write()) {
      // Freshly connected: start the join.
      send(churn, {HttpConn::Kind::playlist, "media.m3u8", join_due, false,
                   true},
           now);
    }

    // Time out anything overdue by more than kTimeout.
    for (HttpConn* c : {&fetch0, &fetch1, &churn}) {
      if (c->open() && !c->pending().empty() &&
          now - c->pending().front().due > kTimeout) {
        fail_pending(*c);
      }
    }
    const bool drained =
        fetch0.in_flight() + fetch1.in_flight() + churn.in_flight() == 0;
    if (now >= t_end && (drained || now >= t_end + kTimeout)) break;

    // Wait for readiness or the next due instant (publisher frames are
    // due every ~8 ms, so never sleep longer than 2 ms).
    pollfd fds[3];
    HttpConn* conns[3] = {&fetch0, &fetch1, &churn};
    nfds_t nfds = 0;
    HttpConn* polled[3];
    for (HttpConn* c : conns) {
      if (!c->open()) continue;
      fds[nfds] = {c->fd(),
                   static_cast<short>(POLLIN | (c->wants_write() ? POLLOUT : 0)),
                   0};
      polled[nfds++] = c;
    }
    double wake = now + 0.002;
    if (open_phase) {
      wake = std::min({wake, next_slot[0], next_slot[1], next_join});
    }
    const double wait = std::max(0.0, wake - now_s());
    timespec ts{static_cast<time_t>(wait),
                static_cast<long>((wait - std::floor(wait)) * 1e9)};
    ::ppoll(fds, nfds, &ts, nullptr);
    for (nfds_t k = 0; k < nfds; ++k) {
      HttpConn& c = *polled[k];
      bool alive = true;
      if (fds[k].revents & POLLOUT) alive = c.on_writable();
      if (alive && (fds[k].revents & (POLLIN | POLLHUP | POLLERR))) {
        alive = c.on_readable(done);
      }
      for (HttpConn::Done& d : done) {
        const double ms = (d.at - d.req.due) * 1e3;
        if (d.status != 200 || ms > kTimeout * 1e3) {
          ++g.failed;
          if (d.req.join) c.close();
          continue;
        }
        if (d.req.kind == HttpConn::Kind::playlist) {
          std::vector<std::string> uris = playlist_segments(d.text);
          if (!uris.empty()) listed = std::move(uris);
          if (d.req.join) {
            send(c,
                 {HttpConn::Kind::segment, listed.back(), d.req.due, false,
                  true},
                 now_s());
          }
          continue;
        }
        if (d.req.join) {
          g.join_ms.push_back(ms);
          c.close();
        } else if (d.req.open_loop) {
          g.fetch_ms.push_back(ms);
        } else {
          g.closed_at.push_back(d.at);
        }
      }
      done.clear();
      if (!alive && c.open()) fail_pending(c);
    }
  }
  g.closed_start = t_closed;
  g.closed_s = closed_s;

  ses.gw_cpu_s = loop_thread.cpu_s() - cpu0;
  loop_thread.join();
  for (HttpConn* c : {&fetch0, &fetch1, &churn}) c->close();
  pub.close();
  ses.gw_requests = gw->http_requests() - requests0;
  ses.segments_stored = gw->store().segments_stored();
  const auto& counters = gw->metrics().counters();
  const auto pe = counters.find("gateway_http_parse_errors_total");
  ses.parse_errors = pe == counters.end()
                         ? 0
                         : static_cast<std::uint64_t>(pe->second.value());
  gw.reset();
  spans.end(phase_span);
  auto verify_span = spans.scope("verify");

  check_served(g, media, cfg, opts.tamper_reference, out);
  return ses;
}

}  // namespace

Outcome run_gateway_workload(const Options& opts, Spans& spans,
                             bool setup_only, double* ready_s) {
  Outcome out;
  if (setup_only) {
    (void)run_session(opts, false, true, ready_s, spans, out);
    return out;
  }
  // A traced run measures an untraced session first, for the overhead.
  double untraced_rps = 0;
  if (opts.traced) {
    double unused = 0;
    Outcome scratch;
    const Session plain =
        run_session(opts, false, false, &unused, spans, scratch);
    untraced_rps = plain.gen.max_rps();
    if (!scratch.correct) out.fail("untraced reference session failed");
  }
  const Session ses = run_session(opts, opts.traced, false, ready_s, spans,
                                  out);
  const GenStats& g = ses.gen;
  out.attempted = g.attempted;
  out.failed = g.failed;
  const double max_rps = g.max_rps();
  std::printf("gateway: fetches=%zu joins=%zu closed_done=%zu "
              "attempted=%llu failed=%llu gen_late_p99_ms=%.3f\n",
              g.fetch_ms.size(), g.join_ms.size(), g.closed_at.size(),
              static_cast<unsigned long long>(g.attempted),
              static_cast<unsigned long long>(g.failed),
              analysis::quantile(g.late_ms, 0.99));
  if (!opts.traced) {
    out.values = {{"throughput_per_s", max_rps},
                  {"peak_rss_mb", peak_rss_mb()}};
    return out;
  }

  const LoopStats& l = ses.loop;
  const LayerCosts costs = replay_layers(
      media::VideoConfig{}, mix_seed(opts.seed, 0x1A7E),
      replay_media_s(opts), spans);
  if (!costs.problem.empty()) out.fail(costs.problem);
  // Segment bytes stored ~= ingest bytes; the publisher's chunk writes
  // and the gateway's chunk reads each touch every ingest byte once.
  const double mux_est = ses.segments_stored * costs.mux_s_per_segment;
  const double rtmp_est = ses.ingest_bytes *
                          (costs.chunk_write_ns_per_byte +
                           costs.chunk_read_ns_per_byte) *
                          1e-9;
  out.values = {
      {"media.encode_ns_per_byte", costs.encode_ns_per_byte},
      {"media.encode_cpu_s_est",
       ses.frames_media_s * costs.encode_s_per_media_s},
      {"mpegts.mux_ns_per_byte", costs.mux_ns_per_byte},
      {"mpegts.mux_cpu_s_est", mux_est},
      {"hls.segments", static_cast<double>(ses.segments_stored)},
      {"rtmp.chunk_write_ns_per_byte", costs.chunk_write_ns_per_byte},
      {"rtmp.chunk_read_ns_per_byte", costs.chunk_read_ns_per_byte},
      {"rtmp.cpu_s_est", rtmp_est},
      {"analysis.reconstruct_ns_per_byte", costs.reconstruct_rtmp_ns_per_byte},
      {"layer_coverage_est", (mux_est + rtmp_est) / ses.gw_cpu_s},
      {"gateway.turns", static_cast<double>(l.turns)},
      {"gateway.busy_share", l.busy_s / l.loop_s},
      {"gateway.turn_p99_us", analysis::quantile(l.busy_turn_us, 0.99)},
      {"gateway.events_per_turn",
       l.turns > 0 ? static_cast<double>(l.events) / l.turns : 0},
      {"gateway.queue_bytes_max", static_cast<double>(l.queue_bytes_max)},
      {"gateway.bridge_lag_p99_ms", analysis::quantile(l.lag_ms, 0.99)},
      {"gateway.http_requests", static_cast<double>(ses.gw_requests)},
      {"gateway.parse_errors", static_cast<double>(ses.parse_errors)},
      {"gateway.segments_stored", static_cast<double>(ses.segments_stored)},
      {"gateway.gen_late_p99_ms", analysis::quantile(g.late_ms, 0.99)},
      {"gateway.fetch_p50_ms", analysis::quantile(g.fetch_ms, 0.5)},
      {"gateway.fetch_p99_ms", analysis::quantile(g.fetch_ms, 0.99)},
      {"gateway.join_p50_ms", analysis::quantile(g.join_ms, 0.5)},
      {"gateway.join_p90_ms", analysis::quantile(g.join_ms, 0.9)},
      {"obs.trace_overhead_pct", (untraced_rps / max_rps - 1) * 100},
  };
  return out;
}

}  // namespace psc::suite
