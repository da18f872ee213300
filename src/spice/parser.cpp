#include "spice/parser.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string_view>
#include <vector>

#include "obs/telemetry.hpp"
#include "spice/elements.hpp"
#include "spice/mosfet.hpp"

namespace si::spice {

namespace {

char lower_char(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

/// Appends the tokens of one line, lower-cased; '(', ')', ',' and '='
/// act as separators but '=' is kept as its own token so "W=10u" ->
/// {"w", "=", "10u"}.
void tokenize_into(std::string_view line, std::vector<std::string>& out) {
  std::string cur;
  auto flush = [&] {
    if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  };
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '(' ||
        c == ')' || c == ',') {
      flush();
    } else if (c == '=') {
      flush();
      out.emplace_back("=");
    } else {
      cur.push_back(lower_char(c));
    }
  }
  flush();
}

/// parse_value on a token that is already lower case; `token` is the
/// text the error messages quote.
double lowered_value(const std::string& t, const std::string& token) {
  // strtod with std::stod's checks: no digits, or a value out of range
  // (overflow or underflow), is not a number.
  const char* begin = t.c_str();
  char* end = nullptr;
  const int saved_errno = errno;
  errno = 0;
  const double v = std::strtod(begin, &end);
  const bool range_error = errno == ERANGE;
  if (errno == 0) errno = saved_errno;
  if (end == begin || range_error || !std::isfinite(v))
    throw std::invalid_argument("bad numeric value: " + token);
  const std::string_view suffix(end);
  if (suffix.empty()) return v;
  // "meg" must be matched before 'm'.
  if (suffix == "meg") return v * 1e6;
  // The suffix must be exactly one known scale letter: "10kz" used to
  // silently parse as 10k, hiding typos.
  if (suffix.size() == 1) {
    switch (suffix[0]) {
      case 'f': return v * 1e-15;
      case 'p': return v * 1e-12;
      case 'n': return v * 1e-9;
      case 'u': return v * 1e-6;
      case 'm': return v * 1e-3;
      case 'k': return v * 1e3;
      case 'g': return v * 1e9;
      case 't': return v * 1e12;
      default: break;
    }
  }
  throw std::invalid_argument("bad value suffix: " + token);
}

}  // namespace

double parse_value(const std::string& token) {
  std::string t = token;
  for (char& c : t) c = lower_char(c);
  return lowered_value(t, token);
}

namespace {

/// Cursor over the tokens of one logical line.
class TokenCursor {
 public:
  TokenCursor(const std::vector<std::string>& tokens, std::size_t line)
      : tokens_(tokens), line_(line) {}

  bool done() const { return pos_ >= tokens_.size(); }

  const std::string& peek() const {
    if (done()) throw ParseError(line_, "unexpected end of line");
    return tokens_[pos_];
  }
  const std::string& next() {
    if (done()) throw ParseError(line_, "unexpected end of line");
    return tokens_[pos_++];
  }
  double next_value() {
    const std::string& t = next();
    try {
      return lowered_value(t, t);
    } catch (const std::invalid_argument& e) {
      throw ParseError(line_, e.what());
    }
  }
  std::size_t line() const { return line_; }

 private:
  const std::vector<std::string>& tokens_;
  std::size_t pos_ = 0;
  std::size_t line_;
};

/// Parses the trailing "key=value ..." pairs into a map.
std::map<std::string, double> parse_kv(TokenCursor& cur) {
  std::map<std::string, double> kv;
  while (!cur.done()) {
    const std::string& key = cur.next();
    if (cur.done() || cur.peek() != "=")
      throw ParseError(cur.line(), "expected '=' after '" + key + "'");
    cur.next();  // consume '='
    kv[key] = cur.next_value();
  }
  return kv;
}

/// Parses a stimulus specification: DC v | SIN(...) | PULSE(...) |
/// PWL(...), or a bare number (treated as DC).
std::unique_ptr<Waveform> parse_stimulus(TokenCursor& cur) {
  const std::string& kind = cur.peek();
  if (kind == "dc") {
    cur.next();
    return std::make_unique<DcWave>(cur.next_value());
  }
  if (kind == "sin") {
    cur.next();
    const double off = cur.next_value();
    const double amp = cur.next_value();
    const double freq = cur.next_value();
    double delay = 0.0, phase = 0.0;
    auto more = [&] {
      return !cur.done() && cur.peek() != "ron" && cur.peek() != "ac";
    };
    if (more()) delay = cur.next_value();
    if (more()) phase = cur.next_value();
    return std::make_unique<SineWave>(off, amp, freq, delay, phase);
  }
  if (kind == "pulse") {
    cur.next();
    const double v1 = cur.next_value();
    const double v2 = cur.next_value();
    const double td = cur.next_value();
    const double tr = cur.next_value();
    const double tf = cur.next_value();
    const double pw = cur.next_value();
    const double period = cur.next_value();
    return std::make_unique<PulseWave>(v1, v2, td, tr, tf, pw, period);
  }
  if (kind == "pwl") {
    cur.next();
    std::vector<std::pair<double, double>> pts;
    while (!cur.done()) {
      const double t = cur.next_value();
      const double v = cur.next_value();
      pts.emplace_back(t, v);
    }
    if (pts.size() < 2) throw ParseError(cur.line(), "PWL needs >= 2 points");
    for (std::size_t k = 1; k < pts.size(); ++k)
      if (pts[k].first <= pts[k - 1].first)
        throw ParseError(cur.line(),
                         "PWL time points must be strictly increasing");
    return std::make_unique<PwlWave>(std::move(pts));
  }
  // Bare number: DC level.
  return std::make_unique<DcWave>(cur.next_value());
}

void expect_done(const TokenCursor& cur) {
  if (!cur.done())
    throw ParseError(cur.line(), "trailing tokens on element card");
}

struct ModelDef {
  MosType type = MosType::kNmos;
  MosfetParams params;
};

MosfetParams apply_model_kv(MosfetParams p,
                            const std::map<std::string, double>& kv,
                            std::size_t line) {
  for (const auto& [k, v] : kv) {
    if (k == "kp") p.kp = v;
    else if (k == "vto" || k == "vt0") p.vt0 = v;
    else if (k == "lambda") p.lambda = v;
    else if (k == "gamma") p.gamma = v;
    else if (k == "phi") p.phi = v;
    else if (k == "cgs") p.cgs = v;
    else if (k == "cgd") p.cgd = v;
    else if (k == "kf") p.kf = v;
    else if (k == "w") p.w = v;
    else if (k == "l") p.l = v;
    else throw ParseError(line, "unknown model parameter '" + k + "'");
  }
  return p;
}

/// One logical card: its first deck line and its tokens, continuation
/// lines included.
struct Card {
  std::size_t line;
  std::vector<std::string> tokens;
};

}  // namespace

Circuit parse_netlist(const std::string& deck, ParseIndex* index) {
  // Counted so a caller can show it parses a deck once per job.
  static obs::Counter& parses = obs::counter("spice.parses");
  parses.add();

  // Join continuation lines ('+' prefix), strip comments, and tokenize
  // each card once for both passes below.
  std::vector<Card> cards;
  {
    const std::string_view text(deck);
    std::size_t lineno = 0, pos = 0;
    while (pos < text.size()) {
      const std::size_t nl = text.find('\n', pos);
      std::string_view raw =
          text.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
      pos = nl == std::string_view::npos ? text.size() : nl + 1;
      ++lineno;
      // Strip end-of-line comments (';' or '$').
      const auto cut = raw.find_first_of(";$");
      if (cut != std::string_view::npos) raw = raw.substr(0, cut);
      // Trim.
      const auto b = raw.find_first_not_of(" \t\r");
      if (b == std::string_view::npos) continue;
      const auto e = raw.find_last_not_of(" \t\r");
      const std::string_view s = raw.substr(b, e - b + 1);
      if (s[0] == '*') continue;  // comment card
      if (s[0] == '+') {
        if (cards.empty())
          throw ParseError(lineno, "continuation with no previous card");
        tokenize_into(s.substr(1), cards.back().tokens);
      } else {
        tokenize_into(s, cards.emplace_back(Card{lineno, {}}).tokens);
      }
    }
  }

  // First pass: collect .model cards.
  std::map<std::string, ModelDef> models;
  for (const auto& [lineno, toks] : cards) {
    if (toks.empty() || toks[0] != ".model") continue;
    TokenCursor cur(toks, lineno);
    cur.next();  // .model
    const std::string& name = cur.next();
    const std::string& type = cur.next();
    ModelDef def;
    if (type == "nmos") def.type = MosType::kNmos;
    else if (type == "pmos") def.type = MosType::kPmos;
    else throw ParseError(lineno, "model type must be NMOS or PMOS");
    def.params = apply_model_kv(def.params, parse_kv(cur), lineno);
    if (models.count(name))
      throw ParseError(lineno, "duplicate model '" + name + "'");
    models[name] = def;
  }

  Circuit c;
  std::map<std::string, std::size_t> defined;  // element name -> line
  // Resolves a node name, recording its first deck line in the index.
  const auto node_at = [&](const std::string& n,
                           std::size_t lineno) -> NodeId {
    if (index) index->node_line.try_emplace(n, lineno);
    return c.node(n);
  };
  for (const auto& [lineno, toks] : cards) {
    if (toks.empty()) continue;
    if (toks[0] == ".model") continue;
    if (toks[0] == ".end") break;
    if (toks[0][0] == '.')
      throw ParseError(lineno, "unsupported directive '" + toks[0] + "'");

    TokenCursor cur(toks, lineno);
    const std::string& name = cur.next();
    const auto [prev, fresh] = defined.emplace(name, lineno);
    if (!fresh)
      throw ParseError(lineno, "duplicate element '" + name +
                                   "' (first defined at line " +
                                   std::to_string(prev->second) + ")");
    if (index) index->element_line[name] = lineno;
    const char kind = name[0];
    // Element constructors validate their values (R > 0, C > 0, MOS
    // geometry); surface those as parse errors with the deck line
    // instead of letting std::invalid_argument escape uncontextualized.
    try {
      switch (kind) {
      case 'r': {
        const NodeId a = node_at(cur.next(), lineno);
        const NodeId b = node_at(cur.next(), lineno);
        c.add<Resistor>(name, a, b, cur.next_value());
        expect_done(cur);
        break;
      }
      case 'c': {
        const NodeId a = node_at(cur.next(), lineno);
        const NodeId b = node_at(cur.next(), lineno);
        c.add<Capacitor>(name, a, b, cur.next_value());
        expect_done(cur);
        break;
      }
      case 'v': {
        const NodeId a = node_at(cur.next(), lineno);
        const NodeId b = node_at(cur.next(), lineno);
        auto& src = c.add<VoltageSource>(name, a, b, parse_stimulus(cur));
        if (!cur.done() && cur.peek() == "ac") {
          cur.next();
          src.set_ac_magnitude(cur.next_value());
        }
        expect_done(cur);
        break;
      }
      case 'i': {
        const NodeId a = node_at(cur.next(), lineno);
        const NodeId b = node_at(cur.next(), lineno);
        auto& src = c.add<CurrentSource>(name, a, b, parse_stimulus(cur));
        if (!cur.done() && cur.peek() == "ac") {
          cur.next();
          src.set_ac_magnitude(cur.next_value());
        }
        expect_done(cur);
        break;
      }
      case 'g': {
        const NodeId op = node_at(cur.next(), lineno);
        const NodeId om = node_at(cur.next(), lineno);
        const NodeId cp = node_at(cur.next(), lineno);
        const NodeId cm = node_at(cur.next(), lineno);
        c.add<Vccs>(name, op, om, cp, cm, cur.next_value());
        expect_done(cur);
        break;
      }
      case 'e': {
        const NodeId op = node_at(cur.next(), lineno);
        const NodeId om = node_at(cur.next(), lineno);
        const NodeId cp = node_at(cur.next(), lineno);
        const NodeId cm = node_at(cur.next(), lineno);
        c.add<Vcvs>(name, op, om, cp, cm, cur.next_value());
        expect_done(cur);
        break;
      }
      case 'f':
      case 'h': {
        // F/H out+ out- Vsense gain — the sensing source must appear
        // earlier in the deck.
        const NodeId op = node_at(cur.next(), lineno);
        const NodeId om = node_at(cur.next(), lineno);
        const std::string& sense_name = cur.next();
        const auto* sense =
            dynamic_cast<const VoltageSource*>(c.find(sense_name));
        if (!sense)
          throw ParseError(lineno, "controlled source '" + name +
                                       "' references unknown voltage "
                                       "source '" + sense_name + "'");
        const double gain = cur.next_value();
        if (kind == 'f')
          c.add<Cccs>(name, op, om, *sense, gain);
        else
          c.add<Ccvs>(name, op, om, *sense, gain);
        expect_done(cur);
        break;
      }
      case 's': {
        const NodeId a = node_at(cur.next(), lineno);
        const NodeId b = node_at(cur.next(), lineno);
        auto wave = parse_stimulus(cur);
        double ron = 1.0, roff = 1e12, vth = 0.5;
        if (!cur.done()) ron = cur.next_value();
        if (!cur.done()) roff = cur.next_value();
        if (!cur.done()) vth = cur.next_value();
        c.add<Switch>(name, a, b, std::move(wave), ron, roff, vth);
        expect_done(cur);
        break;
      }
      case 'm': {
        // M d g s [b] model [W=..] [L=..] — the 4th token is a bulk
        // node iff a 5th non-kv token follows.
        const NodeId d = node_at(cur.next(), lineno);
        const NodeId g = node_at(cur.next(), lineno);
        const NodeId s = node_at(cur.next(), lineno);
        const std::string& t4 = cur.next();
        bool has_bulk = false;
        NodeId bnode = kGroundNode;
        std::string model_name = t4;
        if (!cur.done() && cur.peek() != "=") {
          // Peek ahead: if the next token is a model name (not k=v), t4
          // was the bulk node.
          const std::string& t5 = cur.peek();
          if (models.count(t5)) {
            has_bulk = true;
            bnode = node_at(t4, lineno);
            model_name = cur.next();
          }
        }
        const auto it = models.find(model_name);
        if (it == models.end())
          throw ParseError(lineno, "unknown model '" + model_name + "'");
        MosfetParams p =
            apply_model_kv(it->second.params, parse_kv(cur), lineno);
        if (p.w <= 0.0 || p.l <= 0.0 || p.kp <= 0.0)
          throw ParseError(lineno, "MOSFET '" + name +
                                       "' needs W, L and KP > 0");
        if (has_bulk)
          c.add<Mosfet>(name, it->second.type, d, g, s, bnode, p);
        else
          c.add<Mosfet>(name, it->second.type, d, g, s, p);
        break;
      }
      default:
        throw ParseError(lineno, "unknown element card '" + name + "'");
      }
    } catch (const std::invalid_argument& e) {
      throw ParseError(lineno, e.what());
    }
  }
  return c;
}

}  // namespace si::spice
