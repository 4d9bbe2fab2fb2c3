// Workload stream generators.
//
// The paper evaluates on (a) synthetic random-walk streams, (b) S&P 500
// historical stock data, and (c) CMU Host Load traces. The real datasets'
// download links are long dead, so (b) and (c) are replaced by synthetic
// models that preserve the property each experiment actually exercises:
// cross-stream correlation structure for the stock data, and strong temporal
// autocorrelation ("Fourier locality", Fig 3b) for the host-load traces.
// See DESIGN.md §2 for the substitution rationale.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace sdsi::streams {

/// A source of one unbounded data stream.
class StreamGenerator {
 public:
  virtual ~StreamGenerator() = default;

  /// Produces the next data point.
  virtual Sample next() = 0;

  /// Fills `out` with the next out.size() data points. The default loops
  /// next(); generators with a cheaper bulk path (trace replay) override it.
  virtual void next_span(std::span<Sample> out) {
    for (Sample& x : out) {
      x = next();
    }
  }

  /// Human-readable model name (appears in workload descriptions).
  virtual std::string name() const = 0;
};

/// The paper's synthetic model: x_t = x_{t-1} + r with r uniform in
/// [step_low, step_high], starting from a constant x_0.
class RandomWalkGenerator final : public StreamGenerator {
 public:
  RandomWalkGenerator(common::Pcg32 rng, Sample start = 0.0,
                      Sample step_low = -1.0, Sample step_high = 1.0);

  Sample next() override;
  std::string name() const override { return "random-walk"; }

 private:
  common::Pcg32 rng_;
  Sample value_;
  Sample step_low_;
  Sample step_high_;
};

/// CMU-host-load-like trace: mean-reverting AR(1) baseline + diurnal
/// sinusoid + occasional exponential bursts, clipped to be non-negative.
/// Strongly autocorrelated by construction, which is the property Fig 3(b)
/// demonstrates.
class HostLoadGenerator final : public StreamGenerator {
 public:
  struct Params {
    double base_load = 1.0;        // long-run mean load
    double ar_coefficient = 0.97;  // AR(1) pull toward the baseline
    double noise_std = 0.05;       // innovation std-dev
    double diurnal_amplitude = 0.3;
    double diurnal_period = 4096;  // samples per "day"
    double burst_probability = 0.002;
    double burst_magnitude = 2.0;
    double burst_decay = 0.9;      // bursts decay geometrically
  };

  explicit HostLoadGenerator(common::Pcg32 rng)
      : HostLoadGenerator(rng, Params{}) {}
  HostLoadGenerator(common::Pcg32 rng, Params params);

  Sample next() override;
  std::string name() const override { return "host-load"; }

 private:
  common::Pcg32 rng_;
  Params params_;
  double deviation_ = 0.0;  // AR(1) state around the diurnal baseline
  double burst_ = 0.0;
  std::uint64_t tick_ = 0;
};

/// One S&P500-like equity price path from a shared multi-factor market
/// model (see StockMarketModel).
struct DailyBar {
  double open = 0.0;
  double high = 0.0;
  double low = 0.0;
  double close = 0.0;
  double volume = 0.0;
};

/// Correlated geometric-random-walk market: every ticker's log-return is
///   r_i = mu + beta_i * market + gamma_i * sector(s_i) + eps_i
/// so tickers in one sector correlate strongly — the structure correlation
/// queries over stock streams rely on.
class StockMarketModel {
 public:
  struct Params {
    std::size_t num_tickers = 100;
    std::size_t num_sectors = 10;
    double drift = 0.0002;           // per-step log drift
    double market_vol = 0.010;      // market factor volatility
    double sector_vol = 0.006;      // sector factor volatility
    double idiosyncratic_vol = 0.004;
    double initial_price = 100.0;
  };

  explicit StockMarketModel(common::Pcg32 rng)
      : StockMarketModel(rng, Params{}) {}
  StockMarketModel(common::Pcg32 rng, Params params);

  std::size_t num_tickers() const noexcept { return params_.num_tickers; }
  std::size_t sector_of(std::size_t ticker) const noexcept {
    return ticker % params_.num_sectors;
  }
  const std::string& ticker_symbol(std::size_t ticker) const {
    return symbols_[ticker];
  }

  /// Advances the whole market by one trading day; closes()[i] afterwards is
  /// ticker i's new close.
  void step();

  /// Flash-crowd hook (streams/adversarial.hpp): for the next `steps` calls
  /// to step(), add `magnitude` to the given sector's factor move — a
  /// correlated shock that marches every ticker of the sector in lockstep,
  /// piling their DFT keys onto one narrow ring arc. Additive on top of the
  /// sampled sector move, so the rng draw sequence (and therefore every
  /// non-shocked run) is untouched.
  void apply_sector_shock(std::size_t sector, double magnitude, int steps);

  double close(std::size_t ticker) const noexcept { return prices_[ticker]; }

  /// Full OHLCV bar for the last step (high/low/volume synthesized around
  /// the open->close move).
  DailyBar bar(std::size_t ticker) const;

 private:
  common::Pcg32 rng_;
  Params params_;
  std::vector<double> prices_;
  std::vector<double> previous_prices_;
  std::vector<double> betas_;   // per-ticker market loading
  std::vector<double> gammas_;  // per-ticker sector loading
  std::vector<std::string> symbols_;
  std::size_t shock_sector_ = 0;
  double shock_magnitude_ = 0.0;
  int shock_steps_remaining_ = 0;
};

/// Adapter exposing one ticker of a shared StockMarketModel as a
/// StreamGenerator. The model advances one day whenever the *first* ticker
/// is pulled, so all adapters stay synchronized.
class StockTickerStream final : public StreamGenerator {
 public:
  StockTickerStream(std::shared_ptr<StockMarketModel> market,
                    std::size_t ticker)
      : market_(std::move(market)), ticker_(ticker) {}

  Sample next() override {
    if (ticker_ == 0) {
      market_->step();
    }
    return market_->close(ticker_);
  }
  std::string name() const override {
    return "stock:" + market_->ticker_symbol(ticker_);
  }

 private:
  std::shared_ptr<StockMarketModel> market_;
  std::size_t ticker_;
};

/// Poisson arrival process: exponential inter-arrival times with the given
/// rate (events per second). Used for query arrivals (Table I: QRATE).
class PoissonProcess {
 public:
  PoissonProcess(common::Pcg32 rng, double rate_per_second);

  /// Next inter-arrival gap in seconds.
  double next_gap_seconds();

  double rate() const noexcept { return rate_; }

 private:
  common::Pcg32 rng_;
  double rate_;
};

}  // namespace sdsi::streams
