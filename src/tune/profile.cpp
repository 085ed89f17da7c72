#include "tune/profile.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "perf/machine.hpp"
#include "perf/tracker.hpp"
#include "tune/json.hpp"

namespace chase::tune {

namespace {

void append_number(std::string& out, double v) {
  char buf[64];
  // %.17g round-trips doubles; trim to a plain integer form when exact.
  if (v >= -1e15 && v <= 1e15 && v == double((long long)(v))) {
    std::snprintf(buf, sizeof buf, "%lld", (long long)(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  out += buf;
}

void bump_rejected() {
  if (auto* t = perf::thread_tracker()) t->bump("tune.profile.rejected", 1.0);
}

}  // namespace

Fingerprint local_fingerprint() {
  Fingerprint fp;
  char host[256] = {0};
  if (gethostname(host, sizeof host - 1) == 0) fp.host = host;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto key = line.find("model name");
    if (key == std::string::npos) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    auto start = line.find_first_not_of(" \t", colon + 1);
    if (start != std::string::npos) fp.cpu = line.substr(start);
    break;
  }
  if (fp.cpu.empty()) fp.cpu = "unknown-cpu";
  fp.threads = int(std::thread::hardware_concurrency());
  return fp;
}

std::string encode_profile(const MachineProfile& p) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": ";
  out += json::quote(kProfileSchema);
  out += ",\n  \"version\": ";
  append_number(out, kProfileVersion);
  out += ",\n  \"fingerprint\": {\"host\": ";
  out += json::quote(p.fingerprint.host);
  out += ", \"cpu\": ";
  out += json::quote(p.fingerprint.cpu);
  out += ", \"threads\": ";
  append_number(out, p.fingerprint.threads);
  out += "},\n  \"measurements\": [";
  for (std::size_t i = 0; i < p.measurements.size(); ++i) {
    const RawMeasurement& m = p.measurements[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    out += json::quote(m.name);
    out += ", \"value\": ";
    append_number(out, m.value);
    out += ", \"unit\": ";
    out += json::quote(m.unit);
    out += "}";
  }
  out += "\n  ],\n  \"tables\": {\n    \"rates\": {\"gemm_flops\": ";
  append_number(out, p.rates.gemm_flops);
  out += ", \"factor_flops\": ";
  append_number(out, p.rates.factor_flops);
  out += ", \"single_speedup\": ";
  append_number(out, p.rates.single_speedup);
  out += "}\n  }\n}\n";
  return out;
}

std::optional<MachineProfile> decode_profile(std::string_view text,
                                             std::string* error) {
  const auto fail = [&](const char* why) -> std::optional<MachineProfile> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  const auto doc = json::parse(text);
  if (!doc || !doc->is_object()) return fail("not a JSON object");
  const auto schema = doc->get_string("schema");
  if (!schema || *schema != kProfileSchema) {
    return fail("missing or unknown schema tag");
  }
  const auto version = doc->get_number("version");
  if (!version) return fail("missing version");
  if (int(*version) != kProfileVersion) {
    return fail("unsupported profile version");
  }

  MachineProfile p;
  const json::Value* fp = doc->get("fingerprint");
  if (fp == nullptr || !fp->is_object()) return fail("missing fingerprint");
  p.fingerprint.host = fp->get_string("host").value_or("");
  p.fingerprint.cpu = fp->get_string("cpu").value_or("");
  p.fingerprint.threads = int(fp->get_number("threads").value_or(0));
  if (p.fingerprint.host.empty() || p.fingerprint.threads <= 0) {
    return fail("incomplete fingerprint");
  }

  if (const json::Value* ms = doc->get("measurements")) {
    if (!ms->is_array()) return fail("measurements is not an array");
    for (const json::Value& m : *ms->array) {
      if (!m.is_object()) return fail("malformed measurement entry");
      RawMeasurement raw;
      const auto name = m.get_string("name");
      const auto value = m.get_number("value");
      if (!name || !value) return fail("malformed measurement entry");
      raw.name = *name;
      raw.value = *value;
      raw.unit = m.get_string("unit").value_or("");
      p.measurements.push_back(std::move(raw));
    }
  }

  const json::Value* tables = doc->get("tables");
  if (tables == nullptr || !tables->is_object()) return fail("missing tables");
  if (const json::Value* rates = tables->get("rates")) {
    if (!rates->is_object()) return fail("tables.rates is not an object");
    p.rates.gemm_flops = rates->get_number("gemm_flops").value_or(0);
    p.rates.factor_flops = rates->get_number("factor_flops").value_or(0);
    p.rates.single_speedup = rates->get_number("single_speedup").value_or(0);
  }
  return p;
}

bool save_profile(const MachineProfile& p, const std::string& path,
                  std::string* error) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  out << encode_profile(p);
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "short write to " + path;
    return false;
  }
  return true;
}

std::optional<MachineProfile> load_profile(const std::string& path,
                                           std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot read " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return decode_profile(buf.str(), error);
}

bool install_profile(const MachineProfile& p, bool check_fingerprint) {
  if (check_fingerprint && !p.fingerprint.matches(local_fingerprint())) {
    bump_rejected();
    return false;
  }
  perf::MachineModel model;  // built-in defaults for everything unmeasured
  model.calibrate_from_profile(p.rates.gemm_flops, p.rates.factor_flops,
                               p.rates.single_speedup);
  perf::set_selection_model(model);
  return true;
}

void uninstall_profile() { perf::reset_selection_model(); }

}  // namespace chase::tune
