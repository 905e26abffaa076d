# Golden-file gate for an analyzer's findings over its rule fixtures: the full
# stdout of one buslint / hotlint / wirecheck run must match the committed
# golden byte for byte. The tools exit 1 when they report findings (the
# fixtures exist to trigger them), so only the output is compared. Regenerate a
# golden from the repo root with the command its ctest entry runs, e.g.:
#   build/tools/hotlint/hotlint --root . --explain tests/hotlint_fixtures \
#     > tests/goldens/hotlint_fixtures.txt
foreach(var TOOL ARGS GOLDEN WORKDIR ROOT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "analyzer_golden.cmake: missing -D${var}=")
  endif()
endforeach()

get_filename_component(name ${GOLDEN} NAME)
set(actual ${WORKDIR}/${name})
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} --root ${ROOT} ${args}
                OUTPUT_FILE ${actual}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 AND NOT rc EQUAL 1)
  message(FATAL_ERROR "${TOOL} ${ARGS} failed to run (rc=${rc})")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${actual} ${GOLDEN}
                RESULT_VARIABLE matches)
if(NOT matches EQUAL 0)
  execute_process(COMMAND diff -u ${GOLDEN} ${actual})
  message(FATAL_ERROR
          "${TOOL} ${ARGS} diverged from ${GOLDEN}; if the change is intended, "
          "regenerate the golden (command in tests/analyzer_golden.cmake)")
endif()
