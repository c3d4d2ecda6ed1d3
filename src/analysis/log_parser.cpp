#include "analysis/log_parser.hpp"

#include <cctype>
#include <charconv>
#include <cstring>

#include "util/line_scanner.hpp"
#include "util/logpipe_counters.hpp"
#include "util/strings.hpp"

namespace mcs::analysis {
namespace {

util::Expected<util::Severity> parse_severity(std::string_view token) {
  if (token == "DEBUG") return util::Severity::Debug;
  if (token == "INFO") return util::Severity::Info;
  if (token == "WARN") return util::Severity::Warning;
  if (token == "ERROR") return util::Severity::Error;
  if (token == "FATAL") return util::Severity::Fatal;
  return util::invalid_argument("unknown severity token");
}

}  // namespace

util::Expected<util::LogRecord> parse_log_line(std::string_view line) {
  // "[<ticks>ms] <LEVEL> <component>[/cpuN]: <message>"
  if (line.empty() || line.front() != '[') {
    return util::invalid_argument("missing timestamp bracket");
  }
  const std::size_t close = line.find("ms]");
  if (close == std::string_view::npos) {
    return util::invalid_argument("missing 'ms]'");
  }
  util::LogRecord record;
  {
    const std::string_view digits = line.substr(1, close - 1);
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), value);
    if (ec != std::errc{} || ptr != digits.data() + digits.size()) {
      return util::invalid_argument("bad timestamp");
    }
    record.timestamp = util::Ticks{value};
  }
  std::string_view rest = util::trim(line.substr(close + 3));

  const std::size_t severity_end = rest.find(' ');
  if (severity_end == std::string_view::npos) {
    return util::invalid_argument("missing severity");
  }
  auto severity = parse_severity(rest.substr(0, severity_end));
  if (!severity.is_ok()) return severity.status();
  record.severity = severity.value();
  rest = util::trim(rest.substr(severity_end + 1));

  const std::size_t colon = rest.find(": ");
  if (colon == std::string_view::npos) {
    return util::invalid_argument("missing component separator");
  }
  std::string_view component = rest.substr(0, colon);
  record.message = std::string(rest.substr(colon + 2));

  const std::size_t slash = component.find("/cpu");
  if (slash != std::string_view::npos) {
    const std::string_view cpu_digits = component.substr(slash + 4);
    int cpu = -1;
    const auto [ptr, ec] = std::from_chars(
        cpu_digits.data(), cpu_digits.data() + cpu_digits.size(), cpu);
    if (ec == std::errc{} && ptr == cpu_digits.data() + cpu_digits.size()) {
      record.cpu = cpu;
      component = component.substr(0, slash);
    }
  }
  record.component = std::string(component);
  return record;
}

ParsedLog parse_log_text(std::string_view text) {
  ParsedLog parsed;
  util::for_each_line(text, [&parsed](std::string_view line) {
    if (util::trim(line).empty()) return;
    auto record = parse_log_line(line);
    if (record.is_ok()) {
      parsed.records.push_back(std::move(record).value());
    } else {
      ++parsed.malformed_lines;
    }
  });
  return parsed;
}

std::vector<const util::LogRecord*> ParsedLog::select(
    std::string_view component, util::Severity at_least) const {
  std::vector<const util::LogRecord*> out;
  for (const util::LogRecord& record : records) {
    if (record.component == component && record.severity >= at_least) {
      out.push_back(&record);
    }
  }
  return out;
}

const util::LogRecord* ParsedLog::find_first(std::string_view needle) const {
  for (const util::LogRecord& record : records) {
    if (record.message.find(needle) != std::string::npos) return &record;
  }
  return nullptr;
}

namespace {

/// Single-compare outcome lookup: every outcome name has a distinct
/// (size, spelling) pair, so dispatching on size leaves exactly one
/// candidate to memcmp (two for size 17). Falls back to the generic
/// table walk so a newly added outcome can never silently stop parsing.
bool fast_outcome(std::string_view name, fi::Outcome& out) {
  switch (name.size()) {
    case 7:
      if (name == "correct") return out = fi::Outcome::Correct, true;
      break;
    case 8:
      if (name == "cpu-park") return out = fi::Outcome::CpuPark, true;
      break;
    case 10:
      if (name == "panic-park") return out = fi::Outcome::PanicPark, true;
      break;
    case 11:
      if (name == "silent-hang") return out = fi::Outcome::SilentHang, true;
      break;
    case 13:
      if (name == "harness-error") {
        return out = fi::Outcome::HarnessError, true;
      }
      break;
    case 17:
      if (name == "invalid-arguments") {
        return out = fi::Outcome::InvalidArguments, true;
      }
      if (name == "inconsistent-cell") {
        return out = fi::Outcome::InconsistentCell, true;
      }
      break;
    case 21:
      if (name == "cross-cell-corruption") {
        return out = fi::Outcome::CrossCellCorruption, true;
      }
      break;
    default:
      break;
  }
  return fi::outcome_from_name(name, out);
}

/// Same shape for fault domains (all five names have distinct sizes).
bool fast_domain(std::string_view name, fi::FaultDomain& out) {
  switch (name.size()) {
    case 3:
      if (name == "gic") return out = fi::FaultDomain::Gic, true;
      break;
    case 4:
      if (name == "dram") return out = fi::FaultDomain::Dram, true;
      break;
    case 8:
      if (name == "register") return out = fi::FaultDomain::Register, true;
      break;
    case 11:
      if (name == "device-mmio") {
        return out = fi::FaultDomain::DeviceMmio, true;
      }
      break;
    case 12:
      if (name == "irq-delivery") {
        return out = fi::FaultDomain::IrqDelivery, true;
      }
      break;
    default:
      break;
  }
  return fi::fault_domain_from_name(name, out);
}

/// Fold one entry the way CampaignAggregate::add folds a live run —
/// field for field, in this order; the run log carries everything the
/// aggregate consumes (the outcome, the injection count, the detection
/// flag + latency, the reclaim verdict).
void fold_entry(CampaignAggregate& aggregate, const RunLogEntryView& entry) {
  aggregate.distribution.add(entry.outcome);
  aggregate.injections += entry.injections;
  aggregate.injections_by_domain[static_cast<std::size_t>(entry.domain)] +=
      entry.injections;
  if (entry.failure_detected) {
    aggregate.detection_latency.add(
        static_cast<double>(entry.detect_latency_ms));
  }
  if (fi::is_cell_failure(entry.outcome)) {
    ++aggregate.cell_failures;
    if (entry.shutdown_reclaimed) ++aggregate.reclaimed;
  }
}

/// C-locale whitespace without the per-byte libc call util::trim pays;
/// the run-log hot loop trims every line.
inline bool is_ws(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

inline std::string_view trim_fast(std::string_view text) {
  while (!text.empty() && is_ws(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_ws(text.back())) text.remove_suffix(1);
  return text;
}

/// Last '(' in [begin, begin+len): one vectorised libc call where the
/// glibc extension exists, a plain backward loop elsewhere.
inline const char* last_open_paren(const char* begin, std::size_t len) {
#if defined(__GLIBC__)
  return static_cast<const char*>(memrchr(begin, '(', len));
#else
  for (const char* q = begin + len; q-- > begin;) {
    if (*q == '(') return q;
  }
  return nullptr;
#endif
}

/// The run-line grammar, pointer-at-a-time:
///   "run <N>: <outcome> — <detail> (injections=…, usart_bytes=…[, …])"
/// This is THE hot loop of resume and replay — millions of lines stream
/// through it — so it avoids generic substring searches in favour of
/// from_chars runs and length-dispatched key memcmps: the field group
/// starts at the LAST "(injections=" (the detail may contain parens of
/// its own), and every field key has a distinct length, so each token
/// costs one compare. False on any shape mismatch. Its oracle is the
/// writer: the round-trip property suite renders random runs with
/// fi::run_log_line and pins every value this gives back.
/// `line` must already be trimmed (both call sites trim once, up front).
bool parse_line_into(std::string_view line, RunLogEntryView& entry) {
  const char* p = line.data();
  const char* end = p + line.size();
  if (end - p < 4 || std::memcmp(p, "run ", 4) != 0) return false;

  const char* cursor = p + 4;
  {
    std::uint64_t index = 0;
    const auto [q, ec] = std::from_chars(cursor, end, index);
    if (ec != std::errc{} || q == cursor || q + 2 > end || q[0] != ':' ||
        q[1] != ' ') {
      return false;
    }
    entry.index = static_cast<std::uint32_t>(index);
    cursor = q + 2;
  }

  // The first " — " ends the outcome name (em dash: 3 UTF-8 bytes).
  const char* dash = nullptr;
  for (const char* q = cursor; q + 5 <= end; ++q) {
    if (q[0] == ' ' && q[1] == '\xe2' && q[2] == '\x80' && q[3] == '\x94' &&
        q[4] == ' ') {
      dash = q;
      break;
    }
  }
  if (dash == nullptr) return false;
  if (!fast_outcome(
          std::string_view(cursor, static_cast<std::size_t>(dash - cursor)),
          entry.outcome)) {
    return false;
  }
  const char* rest = dash + 5;
  if (rest >= end || end[-1] != ')') return false;

  const char* open = nullptr;
  for (const char* hi = end; hi > rest;) {
    const char* q = last_open_paren(rest, static_cast<std::size_t>(hi - rest));
    if (q == nullptr) break;
    if (q > rest && q[-1] == ' ' && end - q >= 13 &&
        std::memcmp(q, "(injections=", 12) == 0) {
      open = q;
      break;
    }
    hi = q;
  }
  if (open == nullptr) return false;
  entry.detail =
      std::string_view(rest, static_cast<std::size_t>(open - 1 - rest));

  // Fields: "(injections=…" is guaranteed first by the search above; the
  // rest dispatch in any order. Unknown keys (a newer writer's
  // extensions) are skipped.
  const char* q = open + 12;
  {
    const auto [r, ec] = std::from_chars(q, end, entry.injections);
    if (ec != std::errc{} || r == q) return false;
    q = r;
  }
  bool saw_usart = false;
  for (;;) {
    if (q >= end) return false;
    if (*q == ')') {
      if (q + 1 != end) return false;
      break;
    }
    if (*q != ',') return false;
    ++q;
    while (q < end && *q == ' ') ++q;
    const std::size_t left = static_cast<std::size_t>(end - q);
    if (left >= 12 && std::memcmp(q, "usart_bytes=", 12) == 0) {
      q += 12;
      const auto [r, ec] = std::from_chars(q, end, entry.uart_bytes);
      if (ec != std::errc{} || r == q) return false;
      q = r;
      saw_usart = true;
      continue;
    }
    if (left >= 7 && std::memcmp(q, "domain=", 7) == 0) {
      q += 7;
      const char* value = q;
      while (q < end && *q != ',' && *q != ')') ++q;
      if (!fast_domain(
              std::string_view(value, static_cast<std::size_t>(q - value)),
              entry.domain)) {
        return false;
      }
      continue;
    }
    if (left >= 15 && std::memcmp(q, "detect_latency=", 15) == 0) {
      q += 15;
      const char* value = q;
      const auto [r, ec] = std::from_chars(q, end, entry.detect_latency_ms);
      if (ec != std::errc{} || r == value || end - r < 2 || r[0] != 'm' ||
          r[1] != 's') {
        return false;
      }
      q = r + 2;
      if (q < end && *q != ',' && *q != ')') return false;
      entry.failure_detected = true;
      continue;
    }
    if (left >= 19 && std::memcmp(q, "shutdown_reclaimed=", 19) == 0) {
      q += 19;
      const char* value = q;
      while (q < end && *q != ',' && *q != ')') ++q;
      entry.shutdown_reclaimed = static_cast<std::size_t>(q - value) == 3 &&
                                 std::memcmp(value, "yes", 3) == 0;
      continue;
    }
    while (q < end && *q != ',' && *q != ')') ++q;  // unknown key: skip token
  }
  return saw_usart;
}

}  // namespace

util::Expected<RunLogEntryView> parse_run_log_line_view(std::string_view line) {
  RunLogEntryView entry;
  if (!parse_line_into(trim_fast(line), entry)) {
    return util::invalid_argument("malformed run log line");
  }
  return entry;
}

RunLogScan scan_run_log(std::string_view text) {
  RunLogScan scan;
  // One fused pointer walk — line split, trim and record dispatch in the
  // same loop. Same line boundaries as util::for_each_line (every
  // '\n'-separated segment, no phantom segment after a trailing '\n').
  // Lines that aren't run records at all — record kinds from a newer (or
  // older) writer — are skipped and counted, never fatal. Only a line
  // that claims to be a run record and fails to parse is malformed: the
  // distinction is what lets resume trust a log with foreign record
  // kinds while still rejecting one with a truncated run line.
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p < end) {
    const char* nl = static_cast<const char*>(
        memchr(p, '\n', static_cast<std::size_t>(end - p)));
    const char* const line_end = nl != nullptr ? nl : end;
    const char* b = p;
    p = nl != nullptr ? nl + 1 : end;
    while (b < line_end && is_ws(*b)) ++b;
    const char* e = line_end;
    while (e > b && is_ws(e[-1])) --e;
    if (b == e) continue;
    const std::string_view trimmed(b, static_cast<std::size_t>(e - b));
    if (!trimmed.starts_with("run ")) {
      ++scan.skipped_lines;
      continue;
    }
    RunLogEntryView entry;
    if (!parse_line_into(trimmed, entry)) {
      ++scan.malformed_lines;
      continue;
    }
    if (entry.index != scan.entries) scan.indices_sequential = false;
    fold_entry(scan.aggregate, entry);
    ++scan.entries;
  }
  util::LogPipeCounters::instance().record_parse(
      scan.entries + scan.skipped_lines + scan.malformed_lines, text.size());
  return scan;
}

}  // namespace mcs::analysis
