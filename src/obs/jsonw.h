/**
 * @file
 * Minimal JSON writing helpers shared by the observability exporters
 * (Chrome trace events, metric snapshots, telemetry JSONL). Writing
 * only: reading JSON (gate files, tests) goes through
 * the strict parser in src/common/json.{h,cc}.
 */

#ifndef CQ_OBS_JSONW_H
#define CQ_OBS_JSONW_H

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace cq::obs {

/** Append @p s to @p out as a quoted, escaped JSON string literal. */
inline void
appendJsonString(std::string &out, std::string_view s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/**
 * Append @p v as a JSON number. %.17g round-trips every finite double
 * bit-exactly; non-finite values (invalid JSON) degrade to null.
 */
inline void
appendJsonNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

/** Append @p v with fixed @p decimals digits (trace timestamps). */
inline void
appendJsonFixed(std::string &out, double v, int decimals)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    out += buf;
}

} // namespace cq::obs

#endif // CQ_OBS_JSONW_H
