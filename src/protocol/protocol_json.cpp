#include "protocol/protocol_json.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace econcast::protocol {

namespace {

using util::json::Array;
using util::json::Error;
using util::json::Object;
using util::json::Value;

// Field helpers: absent keys fall back to the struct's default so manifests
// can be written by hand with only the knobs they care about.

double num(const Object& o, const std::string& key, double fallback) {
  const Value* v = o.find(key);
  return v ? v->as_number() : fallback;
}

/// Measured SimResult metrics may legitimately be non-finite, and the writer
/// encodes those as null (see util::json::dump) — so the metric decode maps
/// null back to NaN. Config/spec fields keep the strict num() above: there a
/// null is corruption and must fail loudly, not load as NaN.
double metric(const Object& o, const std::string& key, double fallback) {
  const Value* v = o.find(key);
  return v ? v->as_number_or_nan() : fallback;
}

bool flag(const Object& o, const std::string& key, bool fallback) {
  const Value* v = o.find(key);
  return v ? v->as_bool() : fallback;
}

std::uint64_t u64(const Object& o, const std::string& key,
                  std::uint64_t fallback) {
  const Value* v = o.find(key);
  return v ? util::json::u64_from_string(v->as_string()) : fallback;
}

std::string str(const Object& o, const std::string& key,
                const std::string& fallback) {
  const Value* v = o.find(key);
  return v ? v->as_string() : fallback;
}

Value doubles_to_json(const std::vector<double>& xs) {
  Array a;
  a.reserve(xs.size());
  for (const double x : xs) a.emplace_back(x);
  return Value(std::move(a));
}

std::vector<double> doubles_from_json(const Value& v) {
  std::vector<double> out;
  out.reserve(v.as_array().size());
  for (const Value& x : v.as_array()) out.push_back(x.as_number());
  return out;
}

/// Lenient array decode for per-node metric vectors (null → NaN).
std::vector<double> metrics_from_json(const Value& v) {
  std::vector<double> out;
  out.reserve(v.as_array().size());
  for (const Value& x : v.as_array()) out.push_back(x.as_number_or_nan());
  return out;
}

// ------------------------------------------------------------ enum codecs --

const char* variant_to_token(proto::Variant v) noexcept {
  return v == proto::Variant::kCapture ? "capture" : "non-capture";
}

proto::Variant variant_from_token(const std::string& t) {
  if (t == "capture") return proto::Variant::kCapture;
  if (t == "non-capture") return proto::Variant::kNonCapture;
  throw Error("unknown variant '" + t + "'");
}

const char* schedule_to_token(proto::StepSchedule s) noexcept {
  return s == proto::StepSchedule::kConstant ? "constant" : "theorem1";
}

proto::StepSchedule schedule_from_token(const std::string& t) {
  if (t == "constant") return proto::StepSchedule::kConstant;
  if (t == "theorem1") return proto::StepSchedule::kTheorem1;
  throw Error("unknown step schedule '" + t + "'");
}

const char* estimator_to_token(proto::EstimatorKind k) noexcept {
  switch (k) {
    case proto::EstimatorKind::kPerfect: return "perfect";
    case proto::EstimatorKind::kBinomialThinning: return "binomial-thinning";
    case proto::EstimatorKind::kExistenceOnly: return "existence-only";
  }
  return "perfect";
}

proto::EstimatorKind estimator_from_token(const std::string& t) {
  if (t == "perfect") return proto::EstimatorKind::kPerfect;
  if (t == "binomial-thinning") return proto::EstimatorKind::kBinomialThinning;
  if (t == "existence-only") return proto::EstimatorKind::kExistenceOnly;
  throw Error("unknown estimator kind '" + t + "'");
}

// ----------------------------------------------------------- param codecs --

Value econcast_to_json(const EconCastParams& p) {
  const proto::SimConfig& c = p.config;
  Object o;
  o.set("mode", mode_to_token(c.mode))
      .set("variant", variant_to_token(c.variant))
      .set("sigma", c.sigma)
      .set("multiplier",
           Object{}
               .set("schedule", schedule_to_token(c.multiplier.schedule))
               .set("delta", c.multiplier.delta)
               .set("tau", c.multiplier.tau)
               .set("eta_init", c.multiplier.eta_init))
      .set("adapt_multiplier", c.adapt_multiplier);
  if (!c.eta_init.empty()) o.set("eta_init", doubles_to_json(c.eta_init));
  o.set("auto_step", c.auto_step)
      .set("auto_step_gain", c.auto_step_gain)
      .set("estimator", Object{}
                            .set("kind", estimator_to_token(c.estimator.kind))
                            .set("detect_prob", c.estimator.detect_prob))
      .set("duration", c.duration)
      .set("warmup", c.warmup)
      .set("seed", util::json::u64_to_string(c.seed))
      .set("initial_energy", c.initial_energy)
      .set("energy_guard", c.energy_guard)
      .set("guard_floor", c.guard_floor)
      .set("track_state_occupancy", c.track_state_occupancy)
      .set("report_queue_stats", c.report_queue_stats);
  return Value(std::move(o));
}

EconCastParams econcast_from_json(const Object& o) {
  proto::SimConfig c;
  c.mode = mode_from_token(str(o, "mode", mode_to_token(c.mode)));
  c.variant =
      variant_from_token(str(o, "variant", variant_to_token(c.variant)));
  c.sigma = num(o, "sigma", c.sigma);
  if (const Value* m = o.find("multiplier")) {
    const Object& mo = m->as_object();
    c.multiplier.schedule = schedule_from_token(
        str(mo, "schedule", schedule_to_token(c.multiplier.schedule)));
    c.multiplier.delta = num(mo, "delta", c.multiplier.delta);
    c.multiplier.tau = num(mo, "tau", c.multiplier.tau);
    c.multiplier.eta_init = num(mo, "eta_init", c.multiplier.eta_init);
  }
  c.adapt_multiplier = flag(o, "adapt_multiplier", c.adapt_multiplier);
  if (const Value* e = o.find("eta_init")) c.eta_init = doubles_from_json(*e);
  c.auto_step = flag(o, "auto_step", c.auto_step);
  c.auto_step_gain = num(o, "auto_step_gain", c.auto_step_gain);
  if (const Value* e = o.find("estimator")) {
    const Object& eo = e->as_object();
    c.estimator.kind = estimator_from_token(
        str(eo, "kind", estimator_to_token(c.estimator.kind)));
    c.estimator.detect_prob = num(eo, "detect_prob", c.estimator.detect_prob);
  }
  c.duration = num(o, "duration", c.duration);
  c.warmup = num(o, "warmup", c.warmup);
  c.seed = u64(o, "seed", c.seed);
  c.initial_energy = num(o, "initial_energy", c.initial_energy);
  c.energy_guard = flag(o, "energy_guard", c.energy_guard);
  c.guard_floor = num(o, "guard_floor", c.guard_floor);
  c.track_state_occupancy =
      flag(o, "track_state_occupancy", c.track_state_occupancy);
  c.report_queue_stats = flag(o, "report_queue_stats", c.report_queue_stats);
  return EconCastParams{std::move(c)};
}

Value params_to_json(const ProtocolParams& params) {
  struct Visitor {
    Value operator()(const EconCastParams& p) const {
      return econcast_to_json(p);
    }
    Value operator()(const P4Params& p) const {
      return Value(Object{}
                       .set("mode", mode_to_token(p.mode))
                       .set("sigma", p.sigma));
    }
    Value operator()(const OracleParams& p) const {
      return Value(Object{}.set("mode", mode_to_token(p.mode)));
    }
    Value operator()(const PandaParams& p) const {
      return Value(Object{}
                       .set("optimize", p.optimize)
                       .set("wake_rate", p.wake_rate)
                       .set("listen_window", p.listen_window)
                       .set("simulate", p.simulate)
                       .set("duration", p.duration));
    }
    Value operator()(const BirthdayParams& p) const {
      return Value(Object{}
                       .set("mode", mode_to_token(p.mode))
                       .set("optimize", p.optimize)
                       .set("p_transmit", p.p_transmit)
                       .set("p_listen", p.p_listen)
                       .set("simulate", p.simulate)
                       .set("slots", util::json::u64_to_string(p.slots)));
    }
    Value operator()(const SearchlightParams& p) const {
      return Value(Object{}
                       .set("slot_seconds", p.slot_seconds)
                       .set("beacon_seconds", p.beacon_seconds));
    }
    Value operator()(const TestbedParams& p) const {
      return Value(Object{}
                       .set("sigma", p.sigma)
                       .set("duration_ms", p.duration_ms)
                       .set("warmup_ms", p.warmup_ms)
                       .set("observer", p.observer)
                       .set("report_queue_stats", p.report_queue_stats));
    }
  };
  return std::visit(Visitor{}, params);
}

ProtocolParams params_from_json(const std::string& name, const Object& o) {
  if (name == "econcast") return econcast_from_json(o);
  if (name == "econcast-p4") {
    P4Params p;
    p.mode = mode_from_token(str(o, "mode", mode_to_token(p.mode)));
    p.sigma = num(o, "sigma", p.sigma);
    return p;
  }
  if (name == "oracle") {
    OracleParams p;
    p.mode = mode_from_token(str(o, "mode", mode_to_token(p.mode)));
    return p;
  }
  if (name == "panda") {
    PandaParams p;
    p.optimize = flag(o, "optimize", p.optimize);
    p.wake_rate = num(o, "wake_rate", p.wake_rate);
    p.listen_window = num(o, "listen_window", p.listen_window);
    p.simulate = flag(o, "simulate", p.simulate);
    p.duration = num(o, "duration", p.duration);
    return p;
  }
  if (name == "birthday") {
    BirthdayParams p;
    p.mode = mode_from_token(str(o, "mode", mode_to_token(p.mode)));
    p.optimize = flag(o, "optimize", p.optimize);
    p.p_transmit = num(o, "p_transmit", p.p_transmit);
    p.p_listen = num(o, "p_listen", p.p_listen);
    p.simulate = flag(o, "simulate", p.simulate);
    p.slots = u64(o, "slots", p.slots);
    return p;
  }
  if (name == "searchlight-bound") {
    SearchlightParams p;
    p.slot_seconds = num(o, "slot_seconds", p.slot_seconds);
    p.beacon_seconds = num(o, "beacon_seconds", p.beacon_seconds);
    return p;
  }
  if (name == "econcast-testbed") {
    TestbedParams p;
    p.sigma = num(o, "sigma", p.sigma);
    p.duration_ms = num(o, "duration_ms", p.duration_ms);
    p.warmup_ms = num(o, "warmup_ms", p.warmup_ms);
    p.observer = flag(o, "observer", p.observer);
    p.report_queue_stats = flag(o, "report_queue_stats", p.report_queue_stats);
    return p;
  }
  throw Error("protocol '" + name + "' has no JSON parameter codec");
}

/// Rejects non-finite numbers anywhere in an encoded parameter tree. Specs
/// decode strictly (null there is corruption), so letting dump's
/// NaN-as-null encoding into a spec would write a manifest the tool itself
/// cannot reload; fail at the write, next to the cause.
void require_finite_params(const Value& v, const std::string& name) {
  switch (v.kind()) {
    case Value::Kind::kNumber:
      if (!std::isfinite(v.as_number()))
        throw Error("protocol '" + name +
                    "': parameters contain a non-finite value");
      break;
    case Value::Kind::kArray:
      for (const Value& x : v.as_array()) require_finite_params(x, name);
      break;
    case Value::Kind::kObject:
      for (const auto& [key, x] : v.as_object().members())
        require_finite_params(x, name);
      break;
    default: break;
  }
}

/// The serializable protocol names, paired with the variant alternative
/// each one expects — used to reject name/params mismatches on write.
bool params_match_name(const std::string& name, const ProtocolParams& params) {
  if (name == "econcast")
    return std::holds_alternative<EconCastParams>(params);
  if (name == "econcast-p4") return std::holds_alternative<P4Params>(params);
  if (name == "oracle") return std::holds_alternative<OracleParams>(params);
  if (name == "panda") return std::holds_alternative<PandaParams>(params);
  if (name == "birthday")
    return std::holds_alternative<BirthdayParams>(params);
  if (name == "searchlight-bound")
    return std::holds_alternative<SearchlightParams>(params);
  if (name == "econcast-testbed")
    return std::holds_alternative<TestbedParams>(params);
  return false;
}

}  // namespace

const char* mode_to_token(model::Mode mode) noexcept {
  return model::to_string(mode);  // "groupput" / "anyput"
}

model::Mode mode_from_token(const std::string& token) {
  if (token == "groupput") return model::Mode::kGroupput;
  if (token == "anyput") return model::Mode::kAnyput;
  throw Error("unknown mode '" + token + "'");
}

Value to_json(const ProtocolSpec& spec) {
  if (!params_match_name(spec.name, spec.params))
    throw Error("protocol '" + spec.name +
                "' is not JSON-serializable (custom protocol, or params do "
                "not match the name)");
  Value params = params_to_json(spec.params);
  require_finite_params(params, spec.name);
  Object o;
  o.set("name", spec.name)
      .set("seed", util::json::u64_to_string(spec.seed))
      .set("params", std::move(params));
  return Value(std::move(o));
}

ProtocolSpec spec_from_json(const Value& value) {
  const Object& o = value.as_object();
  ProtocolSpec spec;
  spec.name = o.at("name").as_string();
  spec.seed = u64(o, "seed", spec.seed);
  const Value* params = o.find("params");
  static const Object empty;
  spec.params = params_from_json(spec.name,
                                 params ? params->as_object() : empty);
  return spec;
}

Value to_json(const SimResult& result) {
  // Latencies live in a SampleSet whose percentile/cdf queries sort, and
  // NaN breaks strict weak ordering — so the latency wire format carries
  // finite samples only, symmetric with the decode below. Scalar metrics
  // keep the null encoding instead (they are never sorted).
  Array latencies;
  latencies.reserve(result.latencies.samples().size());
  for (const double x : result.latencies.samples())
    if (std::isfinite(x)) latencies.emplace_back(x);

  Object bursts;
  bursts.set("count",
             Value(static_cast<double>(result.burst_lengths.count())))
      .set("mean", result.burst_lengths.mean())
      .set("m2", result.burst_lengths.m2())
      .set("min", result.burst_lengths.min())
      .set("max", result.burst_lengths.max());
  Object extras;
  for (const auto& [key, v] : result.extras) extras.set(key, v);
  Object o;
  o.set("measured_window", result.measured_window)
      .set("groupput", result.groupput)
      .set("anyput", result.anyput)
      .set("avg_power", doubles_to_json(result.avg_power))
      .set("listen_fraction", doubles_to_json(result.listen_fraction))
      .set("transmit_fraction", doubles_to_json(result.transmit_fraction))
      .set("burst_lengths", std::move(bursts))
      .set("latencies", std::move(latencies))
      .set("packets_sent", util::json::u64_to_string(result.packets_sent))
      .set("packets_received",
           util::json::u64_to_string(result.packets_received))
      .set("extras", std::move(extras));
  return Value(std::move(o));
}

SimResult sim_result_from_json(const Value& value) {
  const Object& o = value.as_object();
  SimResult r;
  r.measured_window = metric(o, "measured_window", 0.0);
  r.groupput = metric(o, "groupput", 0.0);
  r.anyput = metric(o, "anyput", 0.0);
  if (const Value* v = o.find("avg_power")) r.avg_power = metrics_from_json(*v);
  if (const Value* v = o.find("listen_fraction"))
    r.listen_fraction = metrics_from_json(*v);
  if (const Value* v = o.find("transmit_fraction"))
    r.transmit_fraction = metrics_from_json(*v);
  if (const Value* v = o.find("burst_lengths")) {
    const Object& b = v->as_object();
    // count stays strict: it is integral by construction, and a null here
    // would otherwise reach a double-to-size_t cast as NaN (UB).
    r.burst_lengths = util::RunningStats::restore(
        static_cast<std::size_t>(num(b, "count", 0.0)),
        metric(b, "mean", 0.0), metric(b, "m2", 0.0), metric(b, "min", 0.0),
        metric(b, "max", 0.0));
  }
  if (const Value* v = o.find("latencies"))
    for (const Value& x : v->as_array()) {
      // The writer never emits non-finite latencies (see to_json); dropping
      // any that appear keeps a hand-edited file from planting NaN in a
      // container whose sort-based queries NaN would break.
      const double latency = x.as_number_or_nan();
      if (std::isfinite(latency)) r.latencies.add(latency);
    }
  r.packets_sent = u64(o, "packets_sent", 0);
  r.packets_received = u64(o, "packets_received", 0);
  if (const Value* v = o.find("extras"))
    for (const auto& [key, x] : v->as_object().members())
      r.extras[key] = x.as_number_or_nan();
  return r;
}

}  // namespace econcast::protocol
