# Checks that README's environment-knob table and the code agree.
#
#   cmake -DSOURCE_DIR=<repo root> -P tests/env_knobs_documented.cmake
#
# A knob is a "WC3D_..." string literal passed to envInt, envString or
# getenv in src/, examples/ or bench/ (tests/ sets knobs of its own and
# is not scanned). The script fails when the code reads a knob the
# table does not list, or the table lists a knob no code reads.

if(NOT SOURCE_DIR)
    message(FATAL_ERROR "pass -DSOURCE_DIR=<repo root>")
endif()

file(GLOB_RECURSE sources
    "${SOURCE_DIR}/src/*.cc" "${SOURCE_DIR}/src/*.hh"
    "${SOURCE_DIR}/examples/*.cpp" "${SOURCE_DIR}/examples/*.hh"
    "${SOURCE_DIR}/bench/*.cc" "${SOURCE_DIR}/bench/*.hh")

set(read_knobs "")
foreach(source IN LISTS sources)
    file(READ "${source}" text)
    string(REGEX MATCHALL
        "(envInt|envString|getenv)[ \t\r\n]*\\([ \t\r\n]*\"WC3D_[A-Z0-9_]+\""
        calls "${text}")
    foreach(call IN LISTS calls)
        string(REGEX MATCH "WC3D_[A-Z0-9_]+" knob "${call}")
        list(APPEND read_knobs "${knob}")
    endforeach()
endforeach()
list(REMOVE_DUPLICATES read_knobs)
list(SORT read_knobs)

# Table rows look like: | `WC3D_FRAMES` | what it does | default |
file(STRINGS "${SOURCE_DIR}/README.md" rows
    REGEX "^\\| `WC3D_[A-Z0-9_*]+` \\|")
set(table_knobs "")
foreach(row IN LISTS rows)
    string(REGEX MATCH "WC3D_[A-Z0-9_*]+" knob "${row}")
    list(APPEND table_knobs "${knob}")
endforeach()
if(NOT table_knobs)
    message(FATAL_ERROR "no knob table found in README.md")
endif()
list(REMOVE_DUPLICATES table_knobs)
list(SORT table_knobs)

set(undocumented "${read_knobs}")
list(REMOVE_ITEM undocumented ${table_knobs})
set(unread "${table_knobs}")
list(REMOVE_ITEM unread ${read_knobs})

list(LENGTH read_knobs read_count)
if(undocumented OR unread)
    if(undocumented)
        message(SEND_ERROR
            "read in code but missing from README's knob table: "
            "${undocumented}")
    endif()
    if(unread)
        message(SEND_ERROR
            "listed in README's knob table but read by no code: "
            "${unread}")
    endif()
    message(FATAL_ERROR "README knob table is out of date")
endif()
message(STATUS "${read_count} env knobs, all documented: ${read_knobs}")
