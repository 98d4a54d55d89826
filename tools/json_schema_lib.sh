# Shared helpers for the python3-backed JSON schema checks
# (check_certificates.sh, check_hier_schema.sh, check_lint_schema.sh,
# check_metrics_schema.sh, check_replay_schema.sh, check_serve_schema.sh).
# Source this file; do not execute it.
#
# The common shape of every check: require python3 (a real JSON parse is
# the point — a grep fallback would pass documents no consumer can load),
# capture the tool's output into a temp file cleaned up on exit, then run
# a validator program through python's stdin with the document path as
# argv[1] (the heredoc occupies stdin, so the document cannot ride a pipe).

# json_schema_require_python3 CALLER [EXIT_CODE]
#
# Exit with EXIT_CODE (default 1) unless python3 is on PATH. Pass 77 for
# checks registered with a ctest SKIP_RETURN_CODE so a python-less host
# skips rather than fails.
json_schema_require_python3() {
  local caller="$1" code="${2:-1}"
  if ! command -v python3 >/dev/null 2>&1; then
    echo "$caller: python3 is required to validate the JSON schema" \
         "and was not found on PATH" >&2
    exit "$code"
  fi
}

# json_schema_tmpfile
#
# Print the path of a fresh temp file that is removed when the sourcing
# script exits. Registers an EXIT trap: call at most once per script (a
# second call would replace the first trap).
json_schema_tmpfile() {
  local doc
  doc="$(mktemp)"
  # shellcheck disable=SC2064  # expand $doc now, not at exit time
  trap "rm -f '$doc'" EXIT
  printf '%s' "$doc"
}

# json_schema_validate DOC
#
# Run the python validator program supplied on stdin (normally a heredoc)
# against DOC, which the program receives as sys.argv[1].
json_schema_validate() {
  python3 - "$@"
}
