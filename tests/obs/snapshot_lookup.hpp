// Name lookups into a MetricsSnapshot's lists (snap.counters, snap.series)
// for the obs tests.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace odq::testsnap {

// How many entries of `list` carry `name`.
template <class Entry>
int count_named(const std::vector<Entry>& list, const std::string& name) {
  int n = 0;
  for (const Entry& e : list) n += e.name == name ? 1 : 0;
  return n;
}

// The entry named `name`; a test failure and a zeroed entry if absent.
template <class Entry>
Entry find_named(const std::vector<Entry>& list, const std::string& name) {
  for (const Entry& e : list) {
    if (e.name == name) return e;
  }
  ADD_FAILURE() << "no metric " << name << " in the snapshot";
  return Entry{};
}

}  // namespace odq::testsnap
