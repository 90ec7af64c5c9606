// util/error.hpp — error types and contract checks.
//
// Per the C++ Core Guidelines (I.5/I.6, E.2) we state preconditions
// explicitly and throw on violation; `expects()` / `ensures()` are plain
// functions (no macros) that capture the call site via
// std::source_location.
#pragma once

#include <cstddef>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace linesearch {

/// Base class of all linesearch errors.  what() is the log text: the
/// message plus, for a failed contract check, the call site.  message()
/// is the message alone, stable across builds and checkouts — the wire
/// renders it.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what)
      : std::runtime_error(what), message_size_(what.size()) {}
  /// what() = `message` + " [file:line in function]".
  Error(std::string_view message, const std::source_location& where);

  [[nodiscard]] std::string_view message() const noexcept {
    return {what(), message_size_};
  }

 private:
  std::size_t message_size_;  ///< what()'s prefix that is the message
};

/// A caller violated a documented precondition.
class PreconditionError : public Error {
 public:
  using Error::Error;
};

/// An internal invariant failed (library bug, not caller error).
class InvariantError : public Error {
 public:
  using Error::Error;
};

/// A numeric routine failed to converge / bracket.
class NumericError : public Error {
 public:
  using Error::Error;
};

/// Throw PreconditionError with location info unless `condition` holds.
void expects(bool condition, std::string_view message,
             std::source_location where = std::source_location::current());

/// Throw InvariantError with location info unless `condition` holds.
void ensures(bool condition, std::string_view message,
             std::source_location where = std::source_location::current());

}  // namespace linesearch
