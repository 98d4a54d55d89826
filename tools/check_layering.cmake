# Keeps the src/ libraries in one order:
#   * every `#include "lib/x.hpp"` in a library's files names a header
#     owned by that library or by a library in its transitive PUBLIC link
#     closure;
#   * the PUBLIC link graph has no cycle.
#
#   cmake -DSRC=<repo>/src -P tools/check_layering.cmake
#
# A header is owned by the library that compiles its .cpp; a header with
# no .cpp belongs to the one library its directory defines. A library's
# files are its .cpp files and the headers it owns. The add_library and
# target_link_libraries calls in src/*/CMakeLists.txt are the only
# declaration of the order; this script keeps no list of its own. It
# prints one line per violation and exits non-zero.

cmake_minimum_required(VERSION 3.16)
if(NOT SRC OR NOT IS_DIRECTORY "${SRC}")
  message(FATAL_ERROR "usage: cmake -DSRC=<src dir> -P check_layering.cmake")
endif()

set(libraries "")
set(errors "")
macro(violation)  # the arguments are concatenated into one line
  string(CONCAT violation_line ${ARGN})
  list(APPEND errors "${violation_line}")
endmacro()

# The argument text of every `command(...)` call in `text`, one per item.
macro(call_arguments command)
  string(REGEX MATCHALL "${command}\\([^)]*\\)" calls "${text}")
  string(REGEX REPLACE "${command}\\(|\\)" "" calls "${calls}")
endmacro()

file(GLOB list_files RELATIVE "${SRC}" "${SRC}/*/CMakeLists.txt")
list(SORT list_files)
foreach(list_file IN LISTS list_files)
  get_filename_component(dir "${list_file}" DIRECTORY)
  file(READ "${SRC}/${list_file}" text)
  string(REGEX REPLACE "#[^\n]*" "" text "${text}")

  call_arguments(add_library)
  foreach(call IN LISTS calls)
    string(REGEX MATCHALL "[^ \t\r\n]+" words "${call}")
    list(POP_FRONT words name)
    list(APPEND libraries ${name})
    list(APPEND libraries_in_${dir} ${name})
    list(FILTER words INCLUDE REGEX "\\.cpp$")
    list(TRANSFORM words PREPEND "${dir}/" OUTPUT_VARIABLE sources_${name})
  endforeach()

  call_arguments(target_link_libraries)
  foreach(call IN LISTS calls)
    string(REGEX MATCHALL "[^ \t\r\n]+" words "${call}")
    list(POP_FRONT words name)
    set(scope "")
    foreach(word IN LISTS words)
      if(word MATCHES "^(PUBLIC|PRIVATE|INTERFACE)$")
        set(scope ${word})
      elseif(scope STREQUAL "PUBLIC")
        list(APPEND links_${name} ${word})
      endif()
    endforeach()
  endforeach()
endforeach()

# Closures over the src/ libraries only (Threads::Threads orders nothing).
# An edge lib -> dep lies on a cycle exactly when dep reaches lib back.
string(REPLACE ";" "|" any_library "${libraries}")
foreach(lib IN LISTS libraries)
  list(FILTER links_${lib} INCLUDE REGEX "^(${any_library})$")
endforeach()
foreach(lib IN LISTS libraries)
  set(closure_${lib} ${lib})
  set(queue ${links_${lib}})
  while(queue)
    list(POP_FRONT queue dep)
    if(NOT dep IN_LIST closure_${lib})
      list(APPEND closure_${lib} ${dep})
      list(APPEND queue ${links_${dep}})
    endif()
  endwhile()
endforeach()
foreach(lib IN LISTS libraries)
  foreach(dep IN LISTS links_${lib})
    if(lib IN_LIST closure_${dep})
      violation("link cycle: ${lib} -> ${dep}, and ${dep} reaches ${lib} "
                "through its PUBLIC links")
    endif()
  endforeach()
endforeach()

# Header ownership: a .cpp's header first, then a directory's only library.
foreach(lib IN LISTS libraries)
  set(files_${lib} ${sources_${lib}})
  foreach(source IN LISTS sources_${lib})
    string(REGEX REPLACE "\\.cpp$" ".hpp" header "${source}")
    if(EXISTS "${SRC}/${header}")
      set(owner_${header} ${lib})
      list(APPEND files_${lib} ${header})
    endif()
  endforeach()
endforeach()
file(GLOB headers RELATIVE "${SRC}" "${SRC}/*/*.hpp")
list(SORT headers)
foreach(header IN LISTS headers)
  get_filename_component(dir "${header}" DIRECTORY)
  list(LENGTH libraries_in_${dir} count)
  if(DEFINED owner_${header})
    continue()
  elseif(count EQUAL 1)
    set(owner_${header} ${libraries_in_${dir}})
    list(APPEND files_${libraries_in_${dir}} ${header})
  else()
    violation("src/${header}: no .cpp, and src/${dir} defines ${count} "
              "libraries, so no library owns it")
  endif()
endforeach()

set(checked 0)
foreach(lib IN LISTS libraries)
  foreach(file IN LISTS files_${lib})
    file(STRINGS "${SRC}/${file}" lines
         REGEX "^[ \t]*#[ \t]*include[ \t]*\"[^\"]+/[^\"]+\"")
    foreach(line IN LISTS lines)
      string(REGEX REPLACE "^[^\"]*\"([^\"]+)\".*$" "\\1" included "${line}")
      math(EXPR checked "${checked} + 1")
      if(NOT DEFINED owner_${included})
        violation("src/${file}: includes \"${included}\", which no src/ "
                  "library owns")
      elseif(NOT owner_${included} IN_LIST closure_${lib})
        violation("src/${file}: includes \"${included}\", but ${lib} -> "
                  "${owner_${included}} is not in the PUBLIC link closure "
                  "of ${lib}")
      endif()
    endforeach()
  endforeach()
endforeach()

list(LENGTH libraries library_count)
if(errors)
  list(LENGTH errors error_count)
  string(REPLACE ";" "\n  " errors "${errors}")
  message(FATAL_ERROR
    "layering: ${error_count} violation(s) in ${SRC}:\n  ${errors}")
endif()
message(STATUS "layering: ${library_count} libraries, ${checked} includes "
               "inside their link closure, link graph acyclic")
