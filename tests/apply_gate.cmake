# tests/apply_gate.cmake - end-to-end gate for `brainy apply`
#
# Part of the Brainy reproduction of PLDI 2011's "Brainy".
#
# Checks that `check` and `apply --dry-run` exit 2 on an unreadable path
# (a directory), then drives the full adoption pipeline over the bundled
# case studies (examples/apply): plan with --dry-run --json, demand zero
# rejections and the cross-family vector -> unordered_set upgrade, write the
# .brainy.cpp siblings, compile original and rewritten with the same
# compiler, run both and byte-compare stdout, and finally prove
# idempotence by re-applying in place and byte-comparing the file. It also
# checks that `serve` and `train` exit 2 on a number too large for its flag,
# and that `serve` and `recommend` exit 2 on the removed --unbatched flag.
#
# Inputs: -DBRAINY=<brainy binary> -DSRC_DIR=<examples/apply>
#         -DCXX=<compiler> -DWORK_DIR=<scratch dir>
# Usage:  cmake -DBRAINY=... -DSRC_DIR=... -DCXX=... -DWORK_DIR=... \
#               -P apply_gate.cmake

foreach(Var BRAINY SRC_DIR CXX WORK_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "apply_gate: -D${Var}=... is required")
  endif()
endforeach()

set(Cases xalan_busylist chord_pending relipmoc_blocks raytrace_groups)
set(RewrittenCases xalan_busylist chord_pending relipmoc_blocks)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(Case ${Cases})
  configure_file("${SRC_DIR}/${Case}.cpp" "${WORK_DIR}/${Case}.cpp" COPYONLY)
  list(APPEND CaseFiles "${WORK_DIR}/${Case}.cpp")
endforeach()

# --- An unreadable path (a directory) fails like a missing file: exit 2 ------
execute_process(
  COMMAND "${BRAINY}" check "${WORK_DIR}"
  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_QUIET)
if(NOT Rc EQUAL 2)
  message(FATAL_ERROR "apply gate: check on a directory exited ${Rc}, not 2")
endif()
execute_process(
  COMMAND "${BRAINY}" apply --dry-run "${WORK_DIR}"
  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_QUIET)
if(NOT Rc EQUAL 2)
  message(FATAL_ERROR
          "apply gate: apply --dry-run on a directory exited ${Rc}, not 2")
endif()

# --- A number its destination cannot hold is a usage error: exit 2 ----------
execute_process(
  COMMAND "${BRAINY}" serve --models /nonexistent --port 70000
  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_QUIET)
if(NOT Rc EQUAL 2)
  message(FATAL_ERROR "apply gate: serve --port 70000 exited ${Rc}, not 2")
endif()
execute_process(
  COMMAND "${BRAINY}" train --machine core2 --target 4294967296 --seeds 1
          -o "${WORK_DIR}/overflow.models"
  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_QUIET)
if(NOT Rc EQUAL 2)
  message(FATAL_ERROR
          "apply gate: train --target 4294967296 exited ${Rc}, not 2")
endif()

# --- A removed flag is an unknown flag: exit 2 -------------------------------
# Per-example serving is --max-batch 1; --unbatched no longer exists.
execute_process(
  COMMAND "${BRAINY}" serve --models /nonexistent --unbatched
  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_QUIET)
if(NOT Rc EQUAL 2)
  message(FATAL_ERROR "apply gate: serve --unbatched exited ${Rc}, not 2")
endif()
execute_process(
  COMMAND "${BRAINY}" recommend --models /nonexistent
          --queries /nonexistent --unbatched
  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_QUIET)
if(NOT Rc EQUAL 2)
  message(FATAL_ERROR
          "apply gate: recommend --unbatched exited ${Rc}, not 2")
endif()

# --- Plan: --dry-run --json must succeed with zero rejections ----------------
execute_process(
  COMMAND "${BRAINY}" apply --dry-run --json ${CaseFiles}
  OUTPUT_VARIABLE Json RESULT_VARIABLE Rc ERROR_VARIABLE Err)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "apply --dry-run --json failed (rc=${Rc}): ${Err}")
endif()
if(NOT Json MATCHES "\"rejected\":0}")
  message(FATAL_ERROR "apply gate: verifier rejections in plan:\n${Json}")
endif()

# The headline Table 1 upgrade and the cross-family checked upgrade must
# both be planned; the iterated list must be kept.
if(NOT Json MATCHES "\"to\":\"std::unordered_map\",\"status\":\"rewritten\"")
  message(FATAL_ERROR "apply gate: map -> unordered_map was not planned")
endif()
if(NOT Json MATCHES "\"from\":\"std::vector[^\"]*\",\"to\":\"std::unordered_set\",\"status\":\"rewritten\"")
  message(FATAL_ERROR "apply gate: vector -> unordered_set was not planned")
endif()
if(NOT Json MATCHES "\"name\":\"Groups\",[^}]*\"status\":\"kept\"")
  message(FATAL_ERROR "apply gate: the iterated list was not kept:\n${Json}")
endif()

# --- Apply: write .brainy.cpp siblings ---------------------------------------
execute_process(
  COMMAND "${BRAINY}" apply ${CaseFiles}
  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_VARIABLE Err)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "apply (write) failed (rc=${Rc}): ${Err}")
endif()

# --- Compile both, run both, byte-compare stdout -----------------------------
foreach(Case ${RewrittenCases})
  if(NOT EXISTS "${WORK_DIR}/${Case}.brainy.cpp")
    message(FATAL_ERROR "apply gate: ${Case}.brainy.cpp was not written")
  endif()
  foreach(Kind orig new)
    if(Kind STREQUAL "orig")
      set(Src "${WORK_DIR}/${Case}.cpp")
    else()
      set(Src "${WORK_DIR}/${Case}.brainy.cpp")
    endif()
    execute_process(
      COMMAND "${CXX}" -O2 -std=c++17 "${Src}"
              -o "${WORK_DIR}/${Case}.${Kind}"
      RESULT_VARIABLE Rc ERROR_VARIABLE Err)
    if(NOT Rc EQUAL 0)
      message(FATAL_ERROR "compile of ${Src} failed:\n${Err}")
    endif()
    execute_process(
      COMMAND "${WORK_DIR}/${Case}.${Kind}"
      OUTPUT_VARIABLE Out_${Kind} RESULT_VARIABLE Rc)
    if(NOT Rc EQUAL 0)
      message(FATAL_ERROR "${Case}.${Kind} exited with rc=${Rc}")
    endif()
  endforeach()
  if(NOT Out_orig STREQUAL Out_new)
    message(FATAL_ERROR "apply gate: ${Case} output changed after rewrite:\n"
                        "original: ${Out_orig}rewritten: ${Out_new}")
  endif()
  message(STATUS "apply gate: ${Case} rewritten, behavior byte-identical")
endforeach()

# --- Idempotence: --in-place on the applied output is a byte-level no-op -----
foreach(Case ${RewrittenCases})
  file(READ "${WORK_DIR}/${Case}.brainy.cpp" Before)
  execute_process(
    COMMAND "${BRAINY}" apply --in-place "${WORK_DIR}/${Case}.brainy.cpp"
    RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_VARIABLE Err)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "apply --in-place on applied output failed: ${Err}")
  endif()
  file(READ "${WORK_DIR}/${Case}.brainy.cpp" After)
  if(NOT Before STREQUAL After)
    message(FATAL_ERROR "apply gate: ${Case} is not idempotent")
  endif()
endforeach()
message(STATUS "apply gate: idempotence holds on all applied outputs")
