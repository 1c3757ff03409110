// Figure 8: average power consumption of the Periscope app across
// scenarios, WiFi vs LTE, driven by the byte traces of real simulated
// sessions (the network events feeding the radio model come from actual
// RTMP/HLS/chat traffic, not synthetic duty cycles).
#include "figure.h"
#include "client/chat_session.h"
#include "client/viewer_session.h"
#include "energy/power_model.h"
#include "service/chat.h"
#include "service/pipeline.h"

using namespace psc;

namespace {

struct Scenario {
  std::string name;
  double wifi_mw = 0;
  double lte_mw = 0;
};

/// Run one 60 s viewing session and feed its capture into the power
/// integrator (plus chat messages when enabled).
double measure_watch(energy::Radio radio, bool use_hls, bool chat_on,
                     bool broadcasting, std::uint64_t seed,
                     bool replay = false) {
  sim::Simulation sim;
  Rng rng(seed);
  service::PopulationConfig pop;
  service::BroadcastInfo info =
      service::draw_broadcast(pop, rng, {48.8, 2.35}, sim.now());
  info.peak_viewers = use_hls ? 500 : 20;
  info.planned_duration = hours(1);
  info.uplink_bitrate = 4e6;
  service::PipelineConfig pcfg;
  pcfg.hiccup_rate_per_min = 0;
  service::LiveBroadcastPipeline pipe(sim, info, pcfg);
  service::MediaServerPool pool(seed);
  client::Device device(sim, client::DeviceConfig{}, seed);

  if (replay) {
    // Record the broadcast to the CDN, end it, then play the VOD.
    pipe.start(seconds(70));
    sim.run_until(sim.now() + seconds(75));
    pipe.stop();
  } else {
    pipe.start(seconds(120));
    sim.run_until(sim.now() + seconds(15));
  }

  std::unique_ptr<client::ViewerSession> session;
  if (use_hls || replay) {
    session = std::make_unique<client::HlsViewerSession>(
        sim, pipe, device, pool.hls_edges()[0], pool.hls_edges()[1],
        client::PlayerConfig{millis(500), millis(2000)}, seed,
        replay ? client::HlsViewerSession::Mode::Replay
               : client::HlsViewerSession::Mode::Live);
  } else {
    session = std::make_unique<client::RtmpViewerSession>(
        sim, pipe, device, pool.rtmp_origin_for(info.location, info.id),
        client::PlayerConfig{millis(1800), millis(1000)}, seed);
  }

  // Chat rides a real WebSocket session over the same device radios.
  service::ChatRoom chat(sim, &info, service::ChatConfig{}, seed + 1);
  client::ChatSession chat_session(sim, device, chat, seed + 2);
  if (chat_on) {
    chat_session.connect();
    sim.run_until(sim.now() + seconds(1));
    chat.start(seconds(70));
  }

  const TimePoint t0 = sim.now();
  session->start(seconds(60));
  sim.run_until(t0 + seconds(60));

  energy::PowerIntegrator p(radio, t0);
  p.set_app_foreground(t0, true);
  if (broadcasting) {
    p.set_broadcasting(t0, true);
  } else {
    p.set_decoding(t0, true);
  }
  if (chat_on) p.set_chat(t0, true);
  // Merge media capture packets and chat WS frames in time order.
  const auto& media_pkts = session->capture().packets();
  const auto& chat_pkts = chat_session.wire_capture().packets();
  std::size_t ci = 0;
  for (const auto& pkt : media_pkts) {
    while (ci < chat_pkts.size() && chat_pkts[ci].time <= pkt.time) {
      p.on_network_bytes(chat_pkts[ci].time, chat_pkts[ci].size);
      ++ci;
    }
    p.on_network_bytes(pkt.time, pkt.size);
  }
  for (; ci < chat_pkts.size(); ++ci) {
    p.on_network_bytes(chat_pkts[ci].time, chat_pkts[ci].size);
  }
  return p.finish(t0 + seconds(60));
}

double measure_idle(energy::Radio radio) {
  energy::PowerIntegrator p(radio, time_at(0));
  return p.finish(time_at(60));
}

double measure_browse(energy::Radio radio) {
  energy::PowerIntegrator p(radio, time_at(0));
  p.set_app_foreground(time_at(0), true);
  // The app refreshes the available videos every 5 seconds (paper §5.3).
  for (double t = 0; t < 60; t += 5) {
    p.on_network_bytes(time_at(t), 300000);
  }
  return p.finish(time_at(60));
}

}  // namespace

bench::FigureResult figures::fig8_power(bench::Reporter&) {
  const Scenario paper[] = {
      {"idle (menu)", 1000, 1000},
      {"app, no video", 1670, 2160},
      {"watch live RTMP", 0, 0},   // not numerically reported
      {"watch live HLS", 0, 0},    // not numerically reported
      {"watch replay", 0, 0},      // "equal ... as playing back live"
      {"watch + chat", 4170, 4540},
      {"broadcasting", 0, 0},      // "slightly less than chat"
  };

  // Every (scenario, radio) measurement owns its simulation, so the whole
  // grid fans out over the PSC_THREADS pool.
  std::vector<Scenario> measured;
  for (const Scenario& s : paper) measured.push_back({s.name, 0, 0});
  std::vector<std::function<void()>> jobs;
  for (const bool lte : {false, true}) {
    const energy::Radio radio = lte ? energy::Radio::Lte : energy::Radio::Wifi;
    auto cell = [&measured, lte](std::size_t i) -> double& {
      return lte ? measured[i].lte_mw : measured[i].wifi_mw;
    };
    jobs.push_back([cell, radio] { cell(0) = measure_idle(radio); });
    jobs.push_back([cell, radio] { cell(1) = measure_browse(radio); });
    jobs.push_back([cell, radio] {
      cell(2) = measure_watch(radio, false, false, false, 81);
    });
    jobs.push_back([cell, radio] {
      cell(3) = measure_watch(radio, true, false, false, 82);
    });
    jobs.push_back([cell, radio] {
      cell(4) = measure_watch(radio, true, false, false, 85, true);
    });
    jobs.push_back([cell, radio] {
      cell(5) = measure_watch(radio, false, true, false, 83);
    });
    jobs.push_back([cell, radio] {
      cell(6) = measure_watch(radio, false, false, true, 84);
    });
  }
  core::parallel_invoke(std::move(jobs));

  std::printf("\n%-18s %10s %10s   %10s %10s\n", "scenario", "WiFi mW",
              "LTE mW", "paper WiFi", "paper LTE");
  for (std::size_t i = 0; i < measured.size(); ++i) {
    std::printf("%-18s %10.0f %10.0f   ", measured[i].name.c_str(),
                measured[i].wifi_mw, measured[i].lte_mw);
    if (paper[i].wifi_mw > 0) {
      std::printf("%10.0f %10.0f\n", paper[i].wifi_mw, paper[i].lte_mw);
    } else {
      std::printf("%10s %10s\n", "-", "-");
    }
  }

  std::vector<analysis::Bar> bars;
  for (const Scenario& s : measured) {
    bars.push_back({s.name + " (wifi)", s.wifi_mw});
    bars.push_back({s.name + " (lte)", s.lte_mw});
  }
  std::printf("\n%s", analysis::render_bars(bars, "mW").c_str());

  const double chat_lte = measured[5].lte_mw;
  std::printf("\nbattery life at watch+chat on LTE: %.1f h "
              "(paper: 'just over 2h')\n",
              energy::battery_hours(chat_lte));
  std::printf("RTMP vs HLS watch difference: %.0f mW (paper: 'very "
              "small')\n",
              std::abs(measured[2].wifi_mw - measured[3].wifi_mw));
  std::printf("replay vs live difference: %.0f mW (paper: 'equal "
              "amount of power')\n",
              std::abs(measured[4].wifi_mw - measured[3].wifi_mw));
  return {.values = {{"scenarios", static_cast<double>(measured.size())}}};
}
