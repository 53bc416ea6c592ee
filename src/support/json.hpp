// Tiny JSON string helpers shared by every exporter in the tree.
//
// Each exporter used to carry its own escape(); the trace exporter's copy
// forgot control characters below 0x20 and produced invalid JSON for task
// names containing e.g. '\t'. Centralising the rules here keeps the fix in
// one place: JSON strings escape the two mandatory characters plus ALL
// control characters (with shorthands for the common whitespace ones), and
// doubles round-trip via %.17g.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace rio::support {

/// Escapes `s` for embedding inside a JSON string literal (surrounding
/// quotes NOT included). All control chars < 0x20 are escaped — RFC 8259
/// requires it, and Perfetto rejects traces that skip it.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

/// `s` as a complete JSON string literal, quotes included.
inline std::string json_quote(std::string_view s) {
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

/// A double formatted so it round-trips exactly (%.17g): the obs exporter
/// relies on this so e_p / e_r written to obs.json compare bit-for-bit
/// with the values recomputed from the same run.
inline std::string json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return {buf};
}

}  // namespace rio::support
