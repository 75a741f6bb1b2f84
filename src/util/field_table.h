#ifndef SKYUP_UTIL_FIELD_TABLE_H_
#define SKYUP_UTIL_FIELD_TABLE_H_

// One row of a counter table. `ExecStats`, `ServeStats` and
// `PhaseTimings` each declare their fields once, in an X-macro list next
// to the struct; the list expands into the struct's members and into a
// constexpr array of these rows. Merging, metrics export, the `stats`
// printers and the tests walk the array, so a field added to the list
// reaches all of them with no other edit.

namespace skyup {

template <typename Struct, typename Value>
struct FieldSpec {
  const char* name;    ///< short name: the `stats` / JSON key
  const char* metric;  ///< exported metric name
  const char* help;    ///< metric help text
  Value Struct::* member;
};

}  // namespace skyup

#endif  // SKYUP_UTIL_FIELD_TABLE_H_
