# A bad fault plan or --fault-* flag is a usage error: the bench prints
# "error: <message>" naming the flag and exits 2 instead of aborting.
#
#   cmake -DTABLE1=<table1_matching> -DTOURNAMENT=<policy_tournament> \
#         -P bench_usage_errors.cmake
# Run it from a directory without an examples/ subdirectory, so the
# tournament's default --plans-dir=examples does not resolve.

function(expect_usage_error expected)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code STREQUAL "2")
    message(FATAL_ERROR "${ARGN}\n  exited '${code}', want 2; stderr:\n${err}")
  endif()
  string(FIND "${err}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${ARGN}\n  stderr lacks '${expected}':\n${err}")
  endif()
endfunction()

expect_usage_error("error: --fault-plan=nope.json: fault plan: cannot open nope.json"
                   ${TABLE1} --blocks=2 --rounds=1 --fault-plan=nope.json)
expect_usage_error("error: unknown flag --fault-bogus"
                   ${TABLE1} --blocks=2 --rounds=1 --fault-bogus=1)
expect_usage_error("error: --plans-dir=examples: fault plan: cannot open examples/"
                   ${TOURNAMENT} --blocks=2 --rounds=1 --shards=1)
