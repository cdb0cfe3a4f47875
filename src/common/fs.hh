/**
 * @file
 * Minimal filesystem helpers shared by the report writer and the
 * metrics manifest.
 */

#ifndef WC3D_COMMON_FS_HH
#define WC3D_COMMON_FS_HH

#include <string>
#include <vector>

namespace wc3d {

/**
 * Create directory @p path including all missing parents (mkdir -p).
 * @return true when the directory exists on return.
 */
bool makeDirs(const std::string &path);

/**
 * Plain filenames (no "." / "..") in directory @p path, sorted.
 * @return false when the directory cannot be read.
 */
bool listDir(const std::string &path,
             std::vector<std::string> &names);

/**
 * Durably replace @p path with @p content: write a temp file in the
 * same directory through the faultio shim (short writes and ENOSPC are
 * detected, not silently truncated), fsync it, rename(2) it over
 * @p path, then fsync the directory. On any failure the temp file is
 * removed, the previous @p path content is untouched, and @p error
 * (when non-null) receives a structured "op 'path': reason" line.
 * Never calls fatal().
 */
bool atomicWriteFile(const std::string &path, const std::string &content,
                     std::string *error);

} // namespace wc3d

#endif // WC3D_COMMON_FS_HH
