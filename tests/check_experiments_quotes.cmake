# Check that the output blocks EXPERIMENTS.md quotes still match the
# committed golden files:
#
#   cmake -DDOC=<EXPERIMENTS.md> -DGOLDEN_DIR=<results/golden>
#         -P check_experiments_quotes.cmake
#
# A fenced block whose opening fence directly follows a line
# `<!-- golden: NAME.txt -->` is a quote of GOLDEN_DIR/NAME.txt: each of
# its non-blank lines must be a whole line of that file. Trailing
# whitespace is trimmed on both sides. A quote may skip lines (rules,
# rows), but it may not change one.
file(READ "${DOC}" doc)

# CMake lists split on ';' and treat '[' ']' specially; encode them so a
# line survives the round trip through a list.
function(encode out text)
  string(REPLACE ";" "<sc>" text "${text}")
  string(REPLACE "[" "<lb>" text "${text}")
  string(REPLACE "]" "<rb>" text "${text}")
  string(REGEX REPLACE "[ \t\r]+\n" "\n" text "${text}")
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

string(REGEX MATCHALL "<!-- golden: [^\n]*-->" tags "${doc}")
string(REGEX MATCHALL "<!-- golden: [^ \n]+ -->\n```[^\n]*\n[^`]*```" blocks "${doc}")
list(LENGTH tags tag_count)
list(LENGTH blocks block_count)
if(tag_count EQUAL 0)
  message(FATAL_ERROR "${DOC}: no <!-- golden: NAME.txt --> tags")
endif()
if(NOT tag_count EQUAL block_count)
  message(FATAL_ERROR "${DOC}: ${tag_count} golden tags but ${block_count} tagged blocks; "
                      "each tag must be the line right before a fence")
endif()

set(failures 0)
foreach(block IN LISTS blocks)
  string(REGEX MATCH "<!-- golden: ([^ \n]+) -->" _ "${block}")
  set(name "${CMAKE_MATCH_1}")
  if(NOT EXISTS "${GOLDEN_DIR}/${name}")
    message(SEND_ERROR "${DOC}: tagged golden file ${name} does not exist")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()
  file(READ "${GOLDEN_DIR}/${name}" golden)
  encode(golden "\n${golden}\n")
  # The block's body: the lines between the opening and closing fences.
  string(REGEX MATCH "```[^\n]*\n([^`]*)```" _ "${block}")
  encode(body "${CMAKE_MATCH_1}")
  string(REPLACE "\n" ";" lines "${body}")
  foreach(line IN LISTS lines)
    if(line STREQUAL "")
      continue()
    endif()
    string(FIND "${golden}" "\n${line}\n" at)
    if(at EQUAL -1)
      message(SEND_ERROR "${DOC}: line quoted from ${name} is not in it:\n  ${line}")
      math(EXPR failures "${failures} + 1")
    endif()
  endforeach()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} quoted line(s) disagree with results/golden")
endif()
message(STATUS "${block_count} quoted blocks agree with their golden files")
