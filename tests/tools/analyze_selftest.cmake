# Self-test for tools/analyze.py via `cmake -P` (so the default ctest
# sweep covers the four whole-program rules without a pytest
# dependency).
#
# Invoked from tests/CMakeLists.txt as:
#   cmake -DPYTHON=... -DSCRIPT=... -DLINT=... -DFIXTURE=...
#         -P analyze_selftest.cmake
#
# The sabotage fixture under tests/tools/analyze_fixture holds one
# deliberate violation per facet of each rule, plus neighbouring clean
# and suppressed code that must NOT fire:
#   layering       an upward include (common -> core), an undeclared
#                  edge (core -> serve), an upward edge into the
#                  federation layer (serve -> federate), an
#                  unresolvable include, and a two-file include cycle
#                  (em/cycle_a <-> em/cycle_b)
#   charge-site    `++` and `+=` on issuance counters outside
#                  core/sink.h (a read and a suppressed mutation stay
#                  clean)
#   hotpath-alloc  an owning std::vector local, a `new`, and a
#                  push_back onto a non-scratch member, all inside a
#                  *Into hot body (ScratchVec locals, .vec() refs,
#                  out-parameters, and the allocating Query() compat
#                  overload stay clean)
#   posture        a class with its own unmarked mutable member while a
#                  SIBLING class in the same file carries the marker
#                  (the file-scope hole lint.py cannot see), and a
#                  wrapper hiding a posture-marked substrate without an
#                  alias export (exported and chained wrappers stay
#                  clean)
# Exactly twelve findings total — a thirteenth means a suppression
# or an approved pattern regressed; fewer means a rule stopped firing.
#
# The final block is the acceptance demonstration for the per-class
# posture rule: lint.py (file-scope `mutable` check) must PASS the
# two-class header that analyze.py flags.

foreach(var PYTHON SCRIPT LINT FIXTURE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()

execute_process(
  COMMAND ${PYTHON} ${SCRIPT} ${FIXTURE}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(rc EQUAL 0)
  message(FATAL_ERROR "expected the sabotage fixture to be flagged; "
                      "analyze exited clean\nstdout: ${out}")
endif()

# layering: upward edge, undeclared edge, unresolved include, cycle.
foreach(finding
        "uses_core\\.h:4: \\[layering\\].*'common' may not include 'core'"
        "upward\\.h:6: \\[layering\\].*does not resolve"
        "upward\\.h:7: \\[layering\\].*'core' may not include 'serve'"
        "uses_federate\\.h:5: \\[layering\\].*'serve' may not include 'federate'"
        "cycle_b\\.h:3: \\[layering\\] include cycle: em/cycle_a\\.h")
  if(NOT out MATCHES "${finding}")
    message(FATAL_ERROR "missing expected [layering] finding matching "
                        "'${finding}'\nstdout: ${out}\nstderr: ${err}")
  endif()
endforeach()

# charge-site: ++ and += on issuance counters outside core/sink.h.
foreach(line 16 17)
  if(NOT out MATCHES "cheater\\.h:${line}: \\[charge-site\\]")
    message(FATAL_ERROR "missing expected [charge-site] finding at "
                        "cheater.h:${line}\nstdout: ${out}\n"
                        "stderr: ${err}")
  endif()
endforeach()

# hotpath-alloc: owning local, new, push_back on a non-scratch member.
foreach(finding
        "hot\\.h:19: \\[hotpath-alloc\\] owning std::vector local"
        "hot\\.h:20: \\[hotpath-alloc\\] `new`"
        "hot\\.h:27: \\[hotpath-alloc\\] push_back on `bad_`")
  if(NOT out MATCHES "${finding}")
    message(FATAL_ERROR "missing expected [hotpath-alloc] finding "
                        "matching '${finding}'\nstdout: ${out}\n"
                        "stderr: ${err}")
  endif()
endforeach()

# posture: per-class marker hole + hidden unexported substrate.
if(NOT out MATCHES "two_class\\.h:28: \\[posture\\] class SabCacheyInner")
  message(FATAL_ERROR "missing the expected per-class [posture] finding "
                      "at two_class.h:28\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT out MATCHES
   "hidden_substrate\\.h:27: \\[posture\\] class SabBadWrapper")
  message(FATAL_ERROR "missing the expected hidden-substrate [posture] "
                      "finding at hidden_substrate.h:27\nstdout: ${out}\n"
                      "stderr: ${err}")
endif()

if(NOT err MATCHES "12 finding")
  message(FATAL_ERROR "expected exactly 12 findings (a suppression or "
                      "approved pattern regressed, or a rule stopped "
                      "firing)\nstdout: ${out}\nstderr: ${err}")
endif()

# Acceptance demonstration: the two-class posture hole passes lint.py's
# file-scope mutable rule (the sibling's marker covers the whole file)
# while analyze.py flags it per class above. If lint.py starts flagging
# it, the fixture no longer demonstrates the hole; update both tools'
# docs before loosening this.
execute_process(
  COMMAND ${PYTHON} ${LINT} ${FIXTURE}/core/two_class.h
  RESULT_VARIABLE lint_rc
  OUTPUT_VARIABLE lint_out
  ERROR_VARIABLE lint_err)
if(NOT lint_rc EQUAL 0)
  message(FATAL_ERROR "expected lint.py to PASS the two-class posture "
                      "hole (file-scope mutable rule) that analyze.py "
                      "flags per class; it found something instead\n"
                      "stdout: ${lint_out}\nstderr: ${lint_err}")
endif()

message(STATUS "analyze.py: layering/charge-site/hotpath-alloc/posture "
               "self-test passed (12 findings; lint-vs-analyze posture "
               "hole demonstrated)")
