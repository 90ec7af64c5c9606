#include "util/error.hpp"

namespace linesearch {

Error::Error(const std::string_view message,
             const std::source_location& where)
    : std::runtime_error(std::string(message) + " [" + where.file_name() +
                         ":" + std::to_string(where.line()) + " in " +
                         where.function_name() + "]"),
      message_size_(message.size()) {}

void expects(const bool condition, const std::string_view message,
             const std::source_location where) {
  if (!condition) throw PreconditionError(message, where);
}

void ensures(const bool condition, const std::string_view message,
             const std::source_location where) {
  if (!condition) throw InvariantError(message, where);
}

}  // namespace linesearch
