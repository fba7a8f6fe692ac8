#include "adversary/certificate.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "pattern/format.hpp"
#include "util/crc32.hpp"

namespace shufflebound {

std::optional<Certificate> make_certificate(const AdversaryResult& result) {
  const auto witness = extract_witness(result);
  if (!witness) return std::nullopt;
  Certificate cert;
  cert.n = result.input_pattern.size();
  cert.pattern = result.input_pattern;
  cert.survivors = result.survivors;
  cert.witness = *witness;
  return cert;
}

std::string to_text(const Certificate& cert) {
  std::ostringstream out;
  out << "nonsorting-certificate\n";
  out << "n " << cert.n << "\n";
  out << "pattern " << to_text(cert.pattern) << "\n";
  out << "survivors";
  for (const wire_t w : cert.survivors) out << ' ' << w;
  out << "\npi";
  for (wire_t w = 0; w < cert.n; ++w) out << ' ' << cert.witness.pi[w];
  out << "\npi_prime";
  for (wire_t w = 0; w < cert.n; ++w) out << ' ' << cert.witness.pi_prime[w];
  out << "\nw0 " << cert.witness.w0 << " w1 " << cert.witness.w1 << " m "
      << cert.witness.m << "\nend\n";
  return out.str();
}

// ------------------------------------------------------- v2 encoding --

namespace {

constexpr char kV1Header[] = "nonsorting-certificate";
constexpr char kV2Header[] = "nonsorting-certificate-v2";

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80u) {
    out.push_back(static_cast<char>(0x80u | (v & 0x7Fu)));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// LEB128 read; throws on truncation or a value wider than 64 bits.
std::uint64_t get_varint(const std::string& body, std::size_t& pos) {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (pos >= body.size())
      throw std::invalid_argument("certificate: truncated body");
    const auto byte = static_cast<std::uint8_t>(body[pos++]);
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) return v;
  }
  throw std::invalid_argument("certificate: varint overflow");
}

constexpr char kBase64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

std::string base64_encode(const std::string& raw) {
  std::string out;
  out.reserve((raw.size() + 2) / 3 * 4);
  std::size_t i = 0;
  for (; i + 3 <= raw.size(); i += 3) {
    const std::uint32_t v = (static_cast<std::uint32_t>(
                                 static_cast<std::uint8_t>(raw[i]))
                             << 16) |
                            (static_cast<std::uint32_t>(
                                 static_cast<std::uint8_t>(raw[i + 1]))
                             << 8) |
                            static_cast<std::uint8_t>(raw[i + 2]);
    out.push_back(kBase64Alphabet[(v >> 18) & 63u]);
    out.push_back(kBase64Alphabet[(v >> 12) & 63u]);
    out.push_back(kBase64Alphabet[(v >> 6) & 63u]);
    out.push_back(kBase64Alphabet[v & 63u]);
  }
  const std::size_t rest = raw.size() - i;
  if (rest == 1) {
    const auto v = static_cast<std::uint32_t>(static_cast<std::uint8_t>(raw[i]))
                   << 16;
    out.push_back(kBase64Alphabet[(v >> 18) & 63u]);
    out.push_back(kBase64Alphabet[(v >> 12) & 63u]);
    out.push_back('=');
    out.push_back('=');
  } else if (rest == 2) {
    const std::uint32_t v = (static_cast<std::uint32_t>(
                                 static_cast<std::uint8_t>(raw[i]))
                             << 16) |
                            (static_cast<std::uint32_t>(
                                 static_cast<std::uint8_t>(raw[i + 1]))
                             << 8);
    out.push_back(kBase64Alphabet[(v >> 18) & 63u]);
    out.push_back(kBase64Alphabet[(v >> 12) & 63u]);
    out.push_back(kBase64Alphabet[(v >> 6) & 63u]);
    out.push_back('=');
  }
  return out;
}

std::string base64_decode(const std::string& text) {
  static const auto value_of = [] {
    std::array<std::int8_t, 256> t{};
    t.fill(-1);
    for (int i = 0; i < 64; ++i)
      t[static_cast<std::size_t>(
          static_cast<std::uint8_t>(kBase64Alphabet[i]))] =
          static_cast<std::int8_t>(i);
    return t;
  }();
  if (text.size() % 4 != 0)
    throw std::invalid_argument("certificate: bad base64 length");
  std::string out;
  out.reserve(text.size() / 4 * 3);
  for (std::size_t i = 0; i < text.size(); i += 4) {
    int pad = 0;
    std::uint32_t v = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      const char c = text[i + k];
      if (c == '=') {
        // Padding only in the last two positions of the final quad.
        if (i + 4 != text.size() || k < 2)
          throw std::invalid_argument("certificate: bad base64 padding");
        ++pad;
        v <<= 6;
        continue;
      }
      if (pad > 0)
        throw std::invalid_argument("certificate: bad base64 padding");
      const std::int8_t d =
          value_of[static_cast<std::size_t>(static_cast<std::uint8_t>(c))];
      if (d < 0) throw std::invalid_argument("certificate: bad base64 byte");
      v = (v << 6) | static_cast<std::uint32_t>(d);
    }
    out.push_back(static_cast<char>((v >> 16) & 0xFFu));
    if (pad < 2) out.push_back(static_cast<char>((v >> 8) & 0xFFu));
    if (pad < 1) out.push_back(static_cast<char>(v & 0xFFu));
  }
  return out;
}

std::string hex_u32(std::uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

/// Serializes the certificate body: RLE pattern, survivors, witness
/// triple, and pi (pi' is derived on read).
std::string encode_body(const Certificate& cert) {
  std::string body;
  const auto symbols = cert.pattern.symbols();
  for (std::size_t i = 0; i < symbols.size();) {
    std::size_t run = 1;
    while (i + run < symbols.size() && symbols[i + run] == symbols[i]) ++run;
    body.push_back(static_cast<char>(symbols[i].kind));
    put_varint(body, symbols[i].i);
    put_varint(body, symbols[i].j);
    put_varint(body, run);
    i += run;
  }
  put_varint(body, cert.survivors.size());
  for (const wire_t w : cert.survivors) put_varint(body, w);
  put_varint(body, cert.witness.w0);
  put_varint(body, cert.witness.w1);
  put_varint(body, cert.witness.m);
  for (wire_t w = 0; w < cert.n; ++w) put_varint(body, cert.witness.pi[w]);
  return body;
}

Certificate decode_body(wire_t n, const std::string& body) {
  // Every pi entry takes at least one byte, so a larger n is a lie - and
  // must be rejected before the n-sized pattern buffer is reserved.
  if (n > body.size())
    throw std::invalid_argument("certificate: n exceeds body size");
  Certificate cert;
  cert.n = n;
  std::size_t pos = 0;
  std::vector<PatternSymbol> symbols;
  symbols.reserve(n);
  while (symbols.size() < n) {
    if (pos >= body.size())
      throw std::invalid_argument("certificate: truncated pattern");
    const auto kind = static_cast<std::uint8_t>(body[pos++]);
    if (kind > static_cast<std::uint8_t>(SymbolKind::L))
      throw std::invalid_argument("certificate: bad pattern symbol kind");
    PatternSymbol s;
    s.kind = static_cast<SymbolKind>(kind);
    s.i = static_cast<std::uint32_t>(get_varint(body, pos));
    s.j = static_cast<std::uint32_t>(get_varint(body, pos));
    const std::uint64_t run = get_varint(body, pos);
    if (run == 0 || run > n - symbols.size())
      throw std::invalid_argument("certificate: bad pattern run length");
    symbols.insert(symbols.end(), static_cast<std::size_t>(run), s);
  }
  cert.pattern = InputPattern(std::move(symbols));

  const std::uint64_t survivor_count = get_varint(body, pos);
  if (survivor_count > n)
    throw std::invalid_argument("certificate: bad survivor count");
  cert.survivors.reserve(static_cast<std::size_t>(survivor_count));
  for (std::uint64_t i = 0; i < survivor_count; ++i)
    cert.survivors.push_back(static_cast<wire_t>(get_varint(body, pos)));

  cert.witness.w0 = static_cast<wire_t>(get_varint(body, pos));
  cert.witness.w1 = static_cast<wire_t>(get_varint(body, pos));
  cert.witness.m = static_cast<wire_t>(get_varint(body, pos));
  if (cert.witness.w0 >= n || cert.witness.w1 >= n ||
      cert.witness.w0 == cert.witness.w1)
    throw std::invalid_argument("certificate: bad witness wires");

  std::vector<wire_t> image(n);
  for (wire_t w = 0; w < n; ++w) {
    const std::uint64_t v = get_varint(body, pos);
    if (v >= n) throw std::invalid_argument("certificate: pi value out of range");
    image[w] = static_cast<wire_t>(v);
  }
  if (pos != body.size())
    throw std::invalid_argument("certificate: trailing body bytes");
  cert.witness.pi = Permutation(std::move(image));  // validates bijectivity

  // pi' is pi with the values at w0/w1 swapped - the canonical witness
  // shape v2 relies on.
  std::vector<wire_t> prime(cert.witness.pi.image().begin(),
                            cert.witness.pi.image().end());
  std::swap(prime[cert.witness.w0], prime[cert.witness.w1]);
  cert.witness.pi_prime = Permutation(std::move(prime));
  return cert;
}

}  // namespace

std::string to_chunked_text(const Certificate& cert, std::size_t chunk_bytes) {
  if (chunk_bytes == 0)
    throw std::invalid_argument("to_chunked_text: chunk_bytes must be >= 1");
  if (cert.n == 0 || cert.witness.pi.size() != cert.n ||
      cert.witness.pi_prime.size() != cert.n ||
      cert.witness.w0 >= cert.n || cert.witness.w1 >= cert.n ||
      cert.pattern.size() != cert.n)
    throw std::invalid_argument("to_chunked_text: malformed certificate");
  // v2 stores only pi; insist pi' really is the derived canonical form so
  // nothing is silently dropped.
  for (wire_t w = 0; w < cert.n; ++w) {
    const wire_t expect = w == cert.witness.w0   ? cert.witness.pi[cert.witness.w1]
                          : w == cert.witness.w1 ? cert.witness.pi[cert.witness.w0]
                                                 : cert.witness.pi[w];
    if (cert.witness.pi_prime[w] != expect)
      throw std::invalid_argument(
          "to_chunked_text: pi_prime is not pi with the pair swapped");
  }

  const std::string body = encode_body(cert);
  std::ostringstream out;
  out << kV2Header << "\n";
  out << "n " << cert.n << "\n";
  std::size_t chunk_count = 0;
  for (std::size_t off = 0; off < body.size(); off += chunk_bytes) {
    const std::size_t len = std::min(chunk_bytes, body.size() - off);
    const std::string raw = body.substr(off, len);
    out << "chunk " << chunk_count << ' ' << len << ' '
        << hex_u32(crc32_ieee(raw.data(), raw.size())) << "\n";
    out << base64_encode(raw) << "\n";
    ++chunk_count;
  }
  out << "end chunks " << chunk_count << " crc "
      << hex_u32(crc32_ieee(body.data(), body.size())) << "\n";
  return out.str();
}

std::string certificate_text(const Certificate& cert) {
  return cert.n >= 512 ? to_chunked_text(cert) : to_text(cert);
}

bool is_chunked_certificate_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    std::size_t end = line.find_last_not_of(" \t\r");
    return line.substr(start, end - start + 1) == kV2Header;
  }
  return false;
}

namespace {

Certificate certificate_from_chunked_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  const auto next_line = [&](const char* what) -> std::string {
    while (std::getline(in, line)) {
      const std::size_t start = line.find_first_not_of(" \t\r");
      if (start == std::string::npos) continue;
      const std::size_t end = line.find_last_not_of(" \t\r");
      return line.substr(start, end - start + 1);
    }
    throw std::invalid_argument(std::string("certificate: missing ") + what);
  };

  if (next_line("header") != kV2Header)
    throw std::invalid_argument("certificate: bad v2 header");

  wire_t n = 0;
  {
    std::istringstream row(next_line("n"));
    std::string key;
    row >> key >> n;
    if (key != "n" || row.fail() || n == 0)
      throw std::invalid_argument("certificate: bad 'n' row");
  }

  std::string body;
  std::size_t chunks_seen = 0;
  for (;;) {
    const std::string header = next_line("chunk or end");
    if (header.rfind("chunk ", 0) == 0) {
      std::istringstream row(header);
      std::string key;
      std::size_t seq = 0;
      std::size_t raw_len = 0;
      std::string crc_hex;
      row >> key >> seq >> raw_len >> crc_hex;
      if (row.fail() || crc_hex.size() != 8)
        throw std::invalid_argument("certificate: bad chunk header");
      if (seq != chunks_seen)
        throw std::invalid_argument("certificate: chunk out of order");
      const std::string raw = base64_decode(next_line("chunk payload"));
      if (raw.size() != raw_len)
        throw std::invalid_argument("certificate: chunk length mismatch");
      const std::uint32_t crc =
          static_cast<std::uint32_t>(std::stoul(crc_hex, nullptr, 16));
      if (crc32_ieee(raw.data(), raw.size()) != crc)
        throw std::invalid_argument("certificate: chunk CRC mismatch");
      body += raw;
      ++chunks_seen;
    } else if (header.rfind("end ", 0) == 0) {
      std::istringstream row(header);
      std::string key;
      std::string chunks_key;
      std::size_t count = 0;
      std::string crc_key;
      std::string crc_hex;
      row >> key >> chunks_key >> count >> crc_key >> crc_hex;
      if (row.fail() || chunks_key != "chunks" || crc_key != "crc" ||
          crc_hex.size() != 8)
        throw std::invalid_argument("certificate: bad 'end' trailer");
      if (count != chunks_seen)
        throw std::invalid_argument("certificate: chunk count mismatch");
      const std::uint32_t crc =
          static_cast<std::uint32_t>(std::stoul(crc_hex, nullptr, 16));
      if (crc32_ieee(body.data(), body.size()) != crc)
        throw std::invalid_argument("certificate: body CRC mismatch");
      break;
    } else {
      throw std::invalid_argument("certificate: unexpected row: " + header);
    }
  }
  // Fail-closed all the way: trailing garbage after the trailer means the
  // artifact was damaged or concatenated - reject it.
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") != std::string::npos)
      throw std::invalid_argument("certificate: trailing garbage after 'end'");
  }
  return decode_body(n, body);
}

Certificate certificate_from_v1_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  const auto next_line = [&](const char* what) -> std::string {
    while (std::getline(in, line)) {
      if (!line.empty() && line.find_first_not_of(" \t\r") != std::string::npos)
        return line;
    }
    throw std::invalid_argument(std::string("certificate: missing ") + what);
  };

  if (next_line("header") != kV1Header)
    throw std::invalid_argument("certificate: bad header");

  Certificate cert;
  {
    std::istringstream row(next_line("n"));
    std::string key;
    row >> key >> cert.n;
    if (key != "n" || row.fail() || cert.n == 0)
      throw std::invalid_argument("certificate: bad 'n' row");
  }
  {
    std::string row = next_line("pattern");
    if (row.rfind("pattern ", 0) != 0)
      throw std::invalid_argument("certificate: bad 'pattern' row");
    cert.pattern = pattern_from_text(row.substr(8));
    if (cert.pattern.size() != cert.n)
      throw std::invalid_argument("certificate: pattern width mismatch");
  }
  {
    std::istringstream row(next_line("survivors"));
    std::string key;
    row >> key;
    if (key != "survivors")
      throw std::invalid_argument("certificate: bad 'survivors' row");
    wire_t w;
    while (row >> w) cert.survivors.push_back(w);
  }
  const auto read_perm = [&](const char* key_expected) {
    std::istringstream row(next_line(key_expected));
    std::string key;
    row >> key;
    if (key != key_expected)
      throw std::invalid_argument(std::string("certificate: bad '") +
                                  key_expected + "' row");
    std::vector<wire_t> image(cert.n);
    for (wire_t w = 0; w < cert.n; ++w) {
      if (!(row >> image[w]))
        throw std::invalid_argument(std::string("certificate: short '") +
                                    key_expected + "' row");
    }
    return Permutation(std::move(image));
  };
  cert.witness.pi = read_perm("pi");
  cert.witness.pi_prime = read_perm("pi_prime");
  {
    std::istringstream row(next_line("w0"));
    std::string k0, k1, km;
    row >> k0 >> cert.witness.w0 >> k1 >> cert.witness.w1 >> km >>
        cert.witness.m;
    if (k0 != "w0" || k1 != "w1" || km != "m" || row.fail())
      throw std::invalid_argument("certificate: bad witness row");
  }
  if (next_line("end") != "end")
    throw std::invalid_argument("certificate: missing 'end'");
  return cert;
}

}  // namespace

Certificate certificate_from_text(const std::string& text) {
  if (is_chunked_certificate_text(text))
    return certificate_from_chunked_text(text);
  return certificate_from_v1_text(text);
}

namespace {

template <typename Net>
CertificateVerdict verify_impl(const Net& net, const Certificate& cert) {
  CertificateVerdict verdict;
  const Witness& w = cert.witness;
  verdict.well_formed =
      net.width() == cert.n && w.pi.size() == cert.n &&
      w.pi_prime.size() == cert.n && w.w0 < cert.n && w.w1 < cert.n &&
      w.w0 != w.w1 && w.pi[w.w0] == w.m && w.pi[w.w1] == w.m + 1 &&
      w.pi_prime[w.w0] == w.m + 1 && w.pi_prime[w.w1] == w.m &&
      refines_to_input(cert.pattern, w.pi) &&
      refines_to_input(cert.pattern, w.pi_prime);
  if (verdict.well_formed) {
    // pi and pi' must agree away from w0, w1.
    for (wire_t x = 0; x < cert.n; ++x) {
      if (x == w.w0 || x == w.w1) continue;
      if (w.pi[x] != w.pi_prime[x]) {
        verdict.well_formed = false;
        break;
      }
    }
  }
  if (!verdict.well_formed) return verdict;
  verdict.witness_check = check_witness(net, w);
  return verdict;
}

}  // namespace

CertificateVerdict verify_certificate(const ComparatorNetwork& net,
                                      const Certificate& cert) {
  return verify_impl(net, cert);
}

CertificateVerdict verify_certificate(const RegisterNetwork& net,
                                      const Certificate& cert) {
  return verify_impl(net, cert);
}

}  // namespace shufflebound
