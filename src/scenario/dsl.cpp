#include "scenario/dsl.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <system_error>

#include "kinematics/stopping.h"
#include "util/number_format.h"

namespace drivefi::scenario {

namespace {

// ---------- serialization ----------

// Shortest exact, locale-independent form (util/number_format.h): what
// makes parse(serialize(s)) bit-identical regardless of host locale.
std::string fmt(double v) { return util::shortest_double(v); }

// The parser is line-oriented, so newlines (and CRs, which getline would
// otherwise leave embedded) must travel as \n / \r escapes.
std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
  }
  out += '"';
  return out;
}

// Names are usually bare identifiers; quote only when the token would not
// survive whitespace-splitting (or would read as a comment / quoted string).
std::string name_token(const std::string& s) {
  bool bare = !s.empty();
  for (char c : s)
    if (std::isspace(static_cast<unsigned char>(c)) || c == '"' || c == '#')
      bare = false;
  return bare ? s : quote(s);
}

void serialize_into(const sim::Scenario& s, std::ostream& out) {
  out << "scenario " << name_token(s.name) << "\n";
  out << "  description " << quote(s.description) << "\n";
  out << "  duration " << fmt(s.duration) << "\n";
  out << "  road lanes=" << s.world.road.lanes
      << " lane_width=" << fmt(s.world.road.lane_width) << "\n";
  out << "  ego lane=" << s.world.ego_lane << " speed=" << fmt(s.world.ego_speed)
      << "\n";
  // Emitted only when customized, so typical files stay compact; the
  // parser applies defaults for any key left out.
  if (!(s.world.ego_params == kinematics::VehicleParams{})) {
    const auto& p = s.world.ego_params;
    out << "  ego_params wheelbase=" << fmt(p.wheelbase)
        << " max_accel=" << fmt(p.max_accel)
        << " max_brake_decel=" << fmt(p.max_brake_decel)
        << " amax_comfort=" << fmt(p.amax_comfort)
        << " max_steering=" << fmt(p.max_steering)
        << " max_speed=" << fmt(p.max_speed)
        << " steering_rate=" << fmt(p.steering_rate)
        << " max_lateral_accel=" << fmt(p.max_lateral_accel)
        << " length=" << fmt(p.length) << " width=" << fmt(p.width) << "\n";
  }
  for (const auto& tv : s.world.vehicles) {
    out << "  vehicle " << name_token(tv.name) << " gap=" << fmt(tv.initial_gap)
        << " lane=" << tv.initial_lane << " speed=" << fmt(tv.initial_speed)
        << " length=" << fmt(tv.length) << " width=" << fmt(tv.width) << "\n";
    for (const auto& ph : tv.phases) {
      out << "    phase t=" << fmt(ph.start_time)
          << " speed=" << fmt(ph.target_speed) << " accel=" << fmt(ph.accel);
      if (ph.target_lane) out << " lane=" << *ph.target_lane;
      out << " lane_change_duration=" << fmt(ph.lane_change_duration) << "\n";
    }
    if (tv.idm) {
      out << "    idm desired_speed=" << fmt(tv.idm->desired_speed)
          << " time_headway=" << fmt(tv.idm->time_headway)
          << " min_gap=" << fmt(tv.idm->min_gap)
          << " max_accel=" << fmt(tv.idm->max_accel)
          << " comfort_decel=" << fmt(tv.idm->comfort_decel)
          << " exponent=" << fmt(tv.idm->exponent)
          << " hard_decel_cap=" << fmt(tv.idm->hard_decel_cap) << "\n";
    }
  }
  out << "end\n";
}

// ---------- parsing ----------

struct Token {
  std::string text;
  bool quoted = false;
};

// Splits one line into tokens: whitespace-separated words plus
// double-quoted strings (with \" and \\ escapes). '#' starts a comment
// outside quotes.
std::vector<Token> tokenize(const std::string& line, std::size_t line_no) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#') break;
    if (c == '"') {
      Token token;
      token.quoted = true;
      ++i;
      bool closed = false;
      while (i < line.size()) {
        if (line[i] == '\\') {
          const char escaped = i + 1 < line.size() ? line[i + 1] : '\0';
          if (escaped == 'n')
            token.text += '\n';
          else if (escaped == 'r')
            token.text += '\r';
          else if (escaped == '"' || escaped == '\\')
            token.text += escaped;
          else
            throw ScnError(line_no, std::string("unknown escape '\\") +
                                        escaped + "' in string");
          i += 2;
        } else if (line[i] == '"') {
          ++i;
          closed = true;
          break;
        } else {
          token.text += line[i++];
        }
      }
      if (!closed) throw ScnError(line_no, "unterminated string");
      tokens.push_back(std::move(token));
      continue;
    }
    Token token;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i])) &&
           line[i] != '#' && line[i] != '"')
      token.text += line[i++];
    tokens.push_back(std::move(token));
  }
  return tokens;
}

double parse_double(const std::string& text, std::size_t line_no,
                    const std::string& key) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end)
    throw ScnError(line_no, "expected a number for '" + key + "', got '" +
                                text + "'");
  return v;
}

int parse_int(const std::string& text, std::size_t line_no,
              const std::string& key) {
  int v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::result_out_of_range)
    throw ScnError(line_no, "integer out of range for '" + key + "': '" +
                                text + "'");
  if (ec != std::errc() || ptr != end)
    throw ScnError(line_no, "expected an integer for '" + key + "', got '" +
                                text + "'");
  return v;
}

// One key=value pair from a token.
std::pair<std::string, std::string> split_kv(const Token& token,
                                             std::size_t line_no) {
  const std::size_t eq = token.text.find('=');
  if (token.quoted || eq == std::string::npos || eq == 0)
    throw ScnError(line_no, "expected key=value, got '" + token.text + "'");
  return {token.text.substr(0, eq), token.text.substr(eq + 1)};
}

}  // namespace

std::string serialize(const sim::Scenario& scenario) {
  std::ostringstream out;
  serialize_into(scenario, out);
  return out.str();
}

std::string serialize_suite(const std::vector<sim::Scenario>& suite) {
  std::ostringstream out;
  out << "# drivefi scenario suite (" << suite.size() << " scenarios)\n";
  for (const auto& s : suite) {
    out << "\n";
    serialize_into(s, out);
  }
  return out.str();
}

std::vector<sim::Scenario> parse_suite(const std::string& text) {
  std::vector<sim::Scenario> suite;
  sim::Scenario current;
  bool in_scenario = false;
  std::size_t open_line = 0;
  // Index into current.world.vehicles of the vehicle that phase/idm lines
  // attach to; -1 when none has been declared yet.
  long vehicle_index = -1;

  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::vector<Token> tokens = tokenize(line, line_no);
    if (tokens.empty()) continue;
    // A quoted token is always data, never structure: "end" (quoted) must
    // not silently close a scenario block.
    if (tokens[0].quoted)
      throw ScnError(line_no, "expected a keyword, got the quoted string '" +
                                  tokens[0].text + "'");
    const std::string& keyword = tokens[0].text;

    if (keyword == "scenario") {
      if (in_scenario)
        throw ScnError(line_no, "nested 'scenario' (missing 'end'?)");
      if (tokens.size() != 2)
        throw ScnError(line_no, "usage: scenario <name>");
      current = sim::Scenario{};
      current.name = tokens[1].text;
      in_scenario = true;
      open_line = line_no;
      vehicle_index = -1;
      continue;
    }
    if (!in_scenario)
      throw ScnError(line_no, "'" + keyword + "' outside a scenario block");

    if (keyword == "end") {
      if (tokens.size() != 1) throw ScnError(line_no, "usage: end");
      suite.push_back(std::move(current));
      in_scenario = false;
    } else if (keyword == "description") {
      if (tokens.size() != 2)
        throw ScnError(line_no, "usage: description \"<text>\"");
      current.description = tokens[1].text;
    } else if (keyword == "duration") {
      if (tokens.size() != 2) throw ScnError(line_no, "usage: duration <s>");
      current.duration = parse_double(tokens[1].text, line_no, "duration");
    } else if (keyword == "road") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const auto [key, value] = split_kv(tokens[i], line_no);
        if (key == "lanes")
          current.world.road.lanes = parse_int(value, line_no, key);
        else if (key == "lane_width")
          current.world.road.lane_width = parse_double(value, line_no, key);
        else
          throw ScnError(line_no, "unknown road key '" + key + "'");
      }
    } else if (keyword == "ego") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const auto [key, value] = split_kv(tokens[i], line_no);
        if (key == "lane")
          current.world.ego_lane = parse_int(value, line_no, key);
        else if (key == "speed")
          current.world.ego_speed = parse_double(value, line_no, key);
        else
          throw ScnError(line_no, "unknown ego key '" + key + "'");
      }
    } else if (keyword == "ego_params") {
      kinematics::VehicleParams& p = current.world.ego_params;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const auto [key, value] = split_kv(tokens[i], line_no);
        double* field = key == "wheelbase"           ? &p.wheelbase
                        : key == "max_accel"         ? &p.max_accel
                        : key == "max_brake_decel"   ? &p.max_brake_decel
                        : key == "amax_comfort"      ? &p.amax_comfort
                        : key == "max_steering"      ? &p.max_steering
                        : key == "max_speed"         ? &p.max_speed
                        : key == "steering_rate"     ? &p.steering_rate
                        : key == "max_lateral_accel" ? &p.max_lateral_accel
                        : key == "length"            ? &p.length
                        : key == "width"             ? &p.width
                                                     : nullptr;
        if (field == nullptr)
          throw ScnError(line_no, "unknown ego_params key '" + key + "'");
        *field = parse_double(value, line_no, key);
        if (!std::isfinite(*field))
          throw ScnError(line_no, "ego_params " + key + " must be finite");
      }
      // Procedure P runs on these at every scene (see
      // kinematics::kMinStopDecel): a zero deceleration reads every scene
      // as safe, and a tiny one stalls the campaign.
      if (!(p.wheelbase > 0.0))
        throw ScnError(line_no, "ego_params wheelbase must be positive");
      if (p.amax_comfort < kinematics::kMinStopDecel)
        throw ScnError(line_no, "ego_params amax_comfort must be at least " +
                                    fmt(kinematics::kMinStopDecel) +
                                    " m/s^2, got " + fmt(p.amax_comfort));
    } else if (keyword == "vehicle") {
      if (tokens.size() < 2)
        throw ScnError(line_no, "usage: vehicle <name> key=value...");
      sim::TvConfig tv;
      tv.name = tokens[1].text;
      tv.phases.clear();
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const auto [key, value] = split_kv(tokens[i], line_no);
        if (key == "gap")
          tv.initial_gap = parse_double(value, line_no, key);
        else if (key == "lane")
          tv.initial_lane = parse_int(value, line_no, key);
        else if (key == "speed")
          tv.initial_speed = parse_double(value, line_no, key);
        else if (key == "length")
          tv.length = parse_double(value, line_no, key);
        else if (key == "width")
          tv.width = parse_double(value, line_no, key);
        else
          throw ScnError(line_no, "unknown vehicle key '" + key + "'");
      }
      current.world.vehicles.push_back(std::move(tv));
      vehicle_index = static_cast<long>(current.world.vehicles.size()) - 1;
    } else if (keyword == "phase") {
      if (vehicle_index < 0)
        throw ScnError(line_no, "'phase' before any 'vehicle'");
      sim::TvPhase ph;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const auto [key, value] = split_kv(tokens[i], line_no);
        if (key == "t")
          ph.start_time = parse_double(value, line_no, key);
        else if (key == "speed")
          ph.target_speed = parse_double(value, line_no, key);
        else if (key == "accel")
          ph.accel = parse_double(value, line_no, key);
        else if (key == "lane")
          ph.target_lane = parse_int(value, line_no, key);
        else if (key == "lane_change_duration")
          ph.lane_change_duration = parse_double(value, line_no, key);
        else
          throw ScnError(line_no, "unknown phase key '" + key + "'");
      }
      current.world.vehicles[static_cast<std::size_t>(vehicle_index)]
          .phases.push_back(ph);
    } else if (keyword == "idm") {
      if (vehicle_index < 0)
        throw ScnError(line_no, "'idm' before any 'vehicle'");
      sim::IdmConfig idm;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const auto [key, value] = split_kv(tokens[i], line_no);
        if (key == "desired_speed")
          idm.desired_speed = parse_double(value, line_no, key);
        else if (key == "time_headway")
          idm.time_headway = parse_double(value, line_no, key);
        else if (key == "min_gap")
          idm.min_gap = parse_double(value, line_no, key);
        else if (key == "max_accel")
          idm.max_accel = parse_double(value, line_no, key);
        else if (key == "comfort_decel")
          idm.comfort_decel = parse_double(value, line_no, key);
        else if (key == "exponent")
          idm.exponent = parse_double(value, line_no, key);
        else if (key == "hard_decel_cap")
          idm.hard_decel_cap = parse_double(value, line_no, key);
        else
          throw ScnError(line_no, "unknown idm key '" + key + "'");
      }
      current.world.vehicles[static_cast<std::size_t>(vehicle_index)].idm = idm;
    } else {
      throw ScnError(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  if (in_scenario)
    throw ScnError(open_line, "scenario '" + current.name +
                                  "' never closed with 'end'");
  return suite;
}

sim::Scenario parse_scenario(const std::string& text) {
  std::vector<sim::Scenario> suite = parse_suite(text);
  if (suite.size() != 1)
    throw ScnError(1, "expected exactly one scenario, got " +
                          std::to_string(suite.size()));
  return std::move(suite.front());
}

std::vector<sim::Scenario> load_suite(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_suite(text.str());
}

void save_suite(const std::string& path,
                const std::vector<sim::Scenario>& suite) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << serialize_suite(suite);
  out.flush();
  if (!out) throw std::runtime_error("write to " + path + " failed");
}

}  // namespace drivefi::scenario
