// Tests for util/error.hpp — contract helpers.
#include "util/error.hpp"

#include <gtest/gtest.h>

#include <string>

namespace linesearch {
namespace {

TEST(Expects, PassesOnTrue) { EXPECT_NO_THROW(expects(true, "fine")); }

TEST(Expects, ThrowsPreconditionErrorOnFalse) {
  EXPECT_THROW(expects(false, "boom"), PreconditionError);
}

TEST(Expects, MessageContainsTextAndLocation) {
  try {
    expects(false, "my-precondition");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("my-precondition"), std::string::npos);
    EXPECT_NE(what.find("error_test.cpp"), std::string::npos);
  }
}

TEST(Expects, MessageDropsTheLocationThatWhatKeeps) {
  try {
    expects(false, "my-precondition");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_EQ(e.message(), "my-precondition");
    EXPECT_EQ(std::string(e.what()).rfind("my-precondition [", 0), 0u);
  }
  const NumericError plain("no location");
  EXPECT_EQ(plain.message(), plain.what());
}

TEST(Ensures, ThrowsInvariantErrorOnFalse) {
  EXPECT_THROW(ensures(false, "broken invariant"), InvariantError);
  EXPECT_NO_THROW(ensures(true, "ok"));
}

TEST(ErrorHierarchy, AllDeriveFromError) {
  EXPECT_THROW(
      { throw PreconditionError("x"); }, Error);
  EXPECT_THROW(
      { throw InvariantError("x"); }, Error);
  EXPECT_THROW(
      { throw NumericError("x"); }, Error);
}

TEST(ErrorHierarchy, ErrorIsRuntimeError) {
  EXPECT_THROW(
      { throw NumericError("x"); }, std::runtime_error);
}

}  // namespace
}  // namespace linesearch
