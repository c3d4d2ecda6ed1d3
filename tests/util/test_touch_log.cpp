#include "util/touch_log.hpp"

#include <gtest/gtest.h>

namespace mcs::util {
namespace {

using Field = TouchLog::GicField;

TEST(TouchLog, TouchesBeforeTheFirstIntervalAreDropped) {
  TouchLog log;
  log.note(TouchLog::page_key(7));
  EXPECT_EQ(log.size(), 0u);
  EXPECT_FALSE(log.touched_since(TouchLog::page_key(7), 0));
}

TEST(TouchLog, KeepsTheLastIntervalOfEachLocation) {
  TouchLog log;
  log.begin_interval(0);
  log.note(TouchLog::page_key(3));
  log.note(TouchLog::gic_key(3, Field::Enable));
  log.begin_interval(2);
  log.note(TouchLog::page_key(3));
  EXPECT_TRUE(log.touched_since(TouchLog::page_key(3), 0));
  EXPECT_TRUE(log.touched_since(TouchLog::page_key(3), 2));
  EXPECT_FALSE(log.touched_since(TouchLog::page_key(3), 3));
  // Page 3 and line 3's enable are different locations.
  EXPECT_TRUE(log.touched_since(TouchLog::gic_key(3, Field::Enable), 0));
  EXPECT_FALSE(log.touched_since(TouchLog::gic_key(3, Field::Enable), 1));
  EXPECT_FALSE(log.touched_since(TouchLog::gic_key(3, Field::Priority), 0));
  EXPECT_FALSE(log.touched_since(TouchLog::page_key(4), 0));
  EXPECT_EQ(log.size(), 2u);
}

TEST(TouchLog, GrowsWithDistinctLocationsAndClears) {
  TouchLog log;
  log.begin_interval(1);
  for (std::uint64_t page = 0; page < 1000; ++page) log.note(TouchLog::page_key(page * 9));
  EXPECT_EQ(log.size(), 1000u);
  for (std::uint64_t page = 0; page < 1000; ++page) {
    EXPECT_TRUE(log.touched_since(TouchLog::page_key(page * 9), 1)) << page;
    EXPECT_FALSE(log.touched_since(TouchLog::page_key(page * 9 + 1), 0)) << page;
  }
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_FALSE(log.touched_since(TouchLog::page_key(9), 0));
  log.note(TouchLog::page_key(9));  // back before interval 0
  EXPECT_EQ(log.size(), 0u);
}

}  // namespace
}  // namespace mcs::util
