// H1 fixture: an include guard is not `#pragma once`; the repo
// convention is the pragma, so this header is flagged at line 1.
#ifndef FIX_BAD_H1_H
#define FIX_BAD_H1_H

namespace fix {
inline int answer() { return 42; }
}  // namespace fix

#endif
