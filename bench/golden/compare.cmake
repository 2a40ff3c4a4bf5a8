# Runs one paper binary and compares its stdout with the recorded output
# in bench/golden/<name>.txt, byte for byte. On a mismatch it prints the
# first differing line and fails.
#
#   cmake -DBIN=<path to binary> -DGOLDEN=<golden .txt> -P compare.cmake
#
# To re-record after a deliberate change to a paper output, redirect the
# binary's stdout over its golden file and commit the diff:
#
#   build/bench/<name> > bench/golden/<name>.txt

cmake_minimum_required(VERSION 3.16)

if(NOT BIN OR NOT GOLDEN)
  message(FATAL_ERROR "usage: cmake -DBIN=<binary> -DGOLDEN=<file> -P compare.cmake")
endif()

execute_process(COMMAND "${BIN}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with status ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(actual STREQUAL expected)
  return()
endif()

# Walk both texts one line at a time (no list splitting: output lines may
# hold ';' or '[').
set(line 1)
while(TRUE)
  string(FIND "${actual}" "\n" a_end)
  string(FIND "${expected}" "\n" e_end)
  string(SUBSTRING "${actual}" 0 ${a_end} a_line)
  string(SUBSTRING "${expected}" 0 ${e_end} e_line)
  if(NOT a_line STREQUAL e_line OR NOT a_end EQUAL e_end)
    # Plain message(): printed verbatim, where FATAL_ERROR would re-wrap
    # the table rows.
    message("${BIN}: stdout differs from ${GOLDEN} at line ${line}\n"
            "  expected: ${e_line}\n  actual:   ${a_line}")
    message(FATAL_ERROR "golden mismatch")
  endif()
  if(a_end EQUAL -1)
    break()
  endif()
  math(EXPR a_end "${a_end} + 1")
  string(SUBSTRING "${actual}" ${a_end} -1 actual)
  string(SUBSTRING "${expected}" ${a_end} -1 expected)
  math(EXPR line "${line} + 1")
endwhile()
message(FATAL_ERROR "${BIN}: stdout differs from ${GOLDEN}")
