#!/usr/bin/env bash
# Concurrency-contract lint over src/ — the conventions that clang's
# thread-safety analysis and the lock-order validator rely on but cannot
# themselves enforce:
#
#   raw-sync     no raw std synchronization primitives (std::mutex,
#                std::shared_mutex, std::condition_variable*, std
#                lock guards) outside src/util/ — everything locks through
#                the annotated, rank-checked apc::Mutex wrappers.
#   raw-atomic   no raw std::atomic members in headers outside src/obs/ —
#                tallies go through obs::Counter so the striping
#                discipline applies.
#   banned       no std::recursive_mutex (rank-equal reacquisition is a
#                deadlock candidate the validator would hide) and no
#                detached threads (every thread joins at shutdown; the
#                sanitizer suites rely on it).
#   rank         every apc::Mutex / apc::SharedMutex member names its
#                LockRank at the declaration site.
#   doc          every REQUIRES/ACQUIRE-annotated method in a public
#                header carries an adjacent contract doc-comment.
#
# Waivers: a deliberate exception carries, on a comment line above the
# site,
#     // contracts-lint: allow(raw-sync|raw-atomic) -- <why>
# and covers the lines from the tag to the next blank line. The reason
# after `--` is mandatory.
#
#   scripts/check_contracts.sh             # lint src/
#   scripts/check_contracts.sh --selftest  # prove each rule still fires
#                                          # on seeded violations
set -euo pipefail
cd "$(dirname "$0")/.."

ROOT="${CONTRACTS_LINT_ROOT:-src}"

# Every rule is one awk pass over one file; `fail` collects messages so a
# run reports ALL violations, not just the first.
lint_tree() {
  local root="$1"
  local fail=0

  # Waiver-aware per-line scan: rule functions receive each line with
  # `allow_sync` / `allow_atomic` flags reflecting an active waiver block.
  # shellcheck disable=SC2044
  for f in $(find "$root" -name '*.h' -o -name '*.cc' | sort); do
    local rel="$f"

    # --- banned primitives (no waiver exists for these) ------------------
    if out=$(grep -n 'std::recursive_mutex' "$f"); then
      echo "contracts-lint: $rel: banned primitive std::recursive_mutex:"
      echo "$out" | sed 's/^/  /'
      fail=1
    fi
    if out=$(grep -n '\.detach()' "$f"); then
      echo "contracts-lint: $rel: banned detached thread (.detach()):"
      echo "$out" | sed 's/^/  /'
      fail=1
    fi

    # --- raw-sync: std primitives outside src/util/ ----------------------
    case "$rel" in
      */util/*) : ;;  # the wrappers themselves live here
      *)
        if out=$(awk '
          /contracts-lint: allow\(raw-sync\) --/ { waived = 1 }
          /^[[:space:]]*$/ { waived = 0 }
          /std::(mutex|shared_mutex|timed_mutex|condition_variable)[^a-zA-Z0-9_]/ ||
          /std::(condition_variable_any|lock_guard|unique_lock|shared_lock|scoped_lock)[^a-zA-Z0-9_]/ {
            if (!waived) print FILENAME ":" FNR ": " $0
          }' "$f"); [[ -n "$out" ]]; then
          echo "contracts-lint: raw std sync primitive (use apc::Mutex/SharedMutex/CondVar from util/mutex.h):"
          echo "$out" | sed 's/^/  /'
          fail=1
        fi
        ;;
    esac

    # --- raw-atomic: std::atomic members in headers outside src/obs/ -----
    case "$rel" in
      */obs/*|*.cc) : ;;  # obs owns its storage; .cc-local atomics are fine
      *)
        if out=$(awk '
          /contracts-lint: allow\(raw-atomic\) --/ { waived = 1 }
          /^[[:space:]]*$/ { waived = 0 }
          /std::atomic</ {
            if (!waived) print FILENAME ":" FNR ": " $0
          }' "$f"); [[ -n "$out" ]]; then
          echo "contracts-lint: raw std::atomic member in a non-obs header (use obs::Counter, or waive with a reason):"
          echo "$out" | sed 's/^/  /'
          fail=1
        fi
        ;;
    esac

    # --- rank: every Mutex/SharedMutex member names its LockRank ---------
    # A declaration line introduces a member named like `mu_` / `mu{`;
    # wrapper-internal storage and RAII lock locals don't match.
    case "$rel" in
      */util/mutex.h) : ;;
      *)
        if out=$(awk '
          /^[[:space:]]*(mutable[[:space:]]+)?(apc::)?(Mutex|SharedMutex)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*[{;(]/ {
            if ($0 !~ /LockRank::/) print FILENAME ":" FNR ": " $0
          }' "$f"); [[ -n "$out" ]]; then
          echo "contracts-lint: mutex declared without a LockRank (every mutex names its lock class at the declaration):"
          echo "$out" | sed 's/^/  /'
          fail=1
        fi
        ;;
    esac

    # --- doc: annotated header methods carry a contract comment ----------
    # util/mutex.h is exempt: it IS the lock implementation — acquire/
    # release on the wrappers is the method's whole name, not a contract
    # callers could get wrong.
    case "$rel" in
      */util/thread_annotations.h|*/util/mutex.h|*.cc) : ;;
      *)
        if out=$(awk '
          { line[FNR] = $0 }
          /APC_(REQUIRES|REQUIRES_SHARED|ACQUIRE|ACQUIRE_SHARED)\(/ &&
          !/^[[:space:]]*\/\// && !/#define/ {
            # Accept a comment on any of the 4 preceding lines: the
            # annotation may sit on a continuation line of a multi-line
            # declaration whose doc block is a few lines up.
            found = 0
            for (i = FNR - 1; i >= FNR - 4 && i >= 1; i--) {
              if (line[i] ~ /\/\//) { found = 1; break }
              if (line[i] ~ /APC_|\)[[:space:]]*$|,[[:space:]]*$/) continue
              break
            }
            if (!found) print FILENAME ":" FNR ": " $0
          }' "$f"); [[ -n "$out" ]]; then
          echo "contracts-lint: REQUIRES/ACQUIRE-annotated method without an adjacent contract doc-comment:"
          echo "$out" | sed 's/^/  /'
          fail=1
        fi
        ;;
    esac
  done
  return "$fail"
}

if [[ "${1:-}" == "--selftest" ]]; then
  # Seed one violation per rule in a scratch tree and require the lint to
  # catch each; then require a clean seeded tree to pass. This is the
  # lint's own regression test (registered in ctest as
  # contracts_lint_selftest).
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  mkdir -p "$tmp/runtime"

  expect_catch() {  # <name> <needle> <<<file-content on stdin written first>
    local name="$1" needle="$2"
    if out=$(CONTRACTS_LINT_ROOT="$tmp" "$0" 2>&1); then
      echo "check_contracts selftest: FAIL - seeded '$name' violation not caught"
      exit 1
    fi
    if ! grep -q "$needle" <<<"$out"; then
      echo "check_contracts selftest: FAIL - '$name' caught but message lacks '$needle':"
      echo "$out" | sed 's/^/  /'
      exit 1
    fi
    rm -f "$tmp/runtime/bad.h"
  }

  cat > "$tmp/runtime/bad.h" <<'EOF'
#include <mutex>
class Bad { std::mutex mu_; };
EOF
  expect_catch raw-sync "raw std sync primitive"

  cat > "$tmp/runtime/bad.h" <<'EOF'
#include <atomic>
class Bad { std::atomic<int> hits_{0}; };
EOF
  expect_catch raw-atomic "raw std::atomic member"

  cat > "$tmp/runtime/bad.h" <<'EOF'
#include <mutex>
// contracts-lint: allow(raw-sync) -- selftest seed
class Bad { std::recursive_mutex mu_; };
EOF
  expect_catch banned-recursive "std::recursive_mutex"

  cat > "$tmp/runtime/bad.h" <<'EOF'
#include <thread>
inline void Spawn() { std::thread([]{}).detach(); }
EOF
  expect_catch banned-detach "detached thread"

  cat > "$tmp/runtime/bad.h" <<'EOF'
class Bad {
  Mutex mu_;
};
EOF
  expect_catch rank "without a LockRank"

  cat > "$tmp/runtime/bad.h" <<'EOF'
class Bad {
 public:
  int x_ = 0;

  void MutateLocked() APC_REQUIRES(mu_);
};
EOF
  expect_catch doc "without an adjacent contract doc-comment"

  # A clean file exercising every rule's happy path must pass.
  cat > "$tmp/runtime/good.h" <<'EOF'
class Good {
 public:
  /// Requires mu_ held exclusively; mutates the guarded count.
  void MutateLocked() APC_REQUIRES(mu_);

 private:
  Mutex mu_{LockRank::kQueue, "good.mu"};
  // contracts-lint: allow(raw-atomic) -- selftest waiver path
  std::atomic<int> waived_{0};
};
EOF
  if ! CONTRACTS_LINT_ROOT="$tmp" "$0" >/dev/null 2>&1; then
    echo "check_contracts selftest: FAIL - clean tree flagged"
    exit 1
  fi

  echo "check_contracts selftest: all seeded violations caught, clean tree passes"
  exit 0
fi

if lint_tree "$ROOT"; then
  echo "check_contracts: $ROOT clean (raw-sync, raw-atomic, banned, rank, doc)"
else
  echo "check_contracts: FAIL - fix the sites above or add a '// contracts-lint: allow(...) -- <why>' waiver where the exception is deliberate"
  exit 1
fi
