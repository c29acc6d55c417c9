// ParseNumber: the strict decimal parse every command-line tool uses for
// its numeric flags and arguments.

#ifndef LEVELDBPP_TOOLS_PARSE_NUMBER_H_
#define LEVELDBPP_TOOLS_PARSE_NUMBER_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <system_error>

namespace leveldbpp {

/// Parse `text` as a plain decimal in [0, max]: digits only, nothing
/// after. A sign, a suffix, an empty string or an overflow is rejected.
inline bool ParseNumber(const std::string& text, uint64_t max,
                        uint64_t* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return !text.empty() && ec == std::errc() && ptr == end && *out <= max;
}

}  // namespace leveldbpp

#endif  // LEVELDBPP_TOOLS_PARSE_NUMBER_H_
